"""Provenance stamped on every benchmark result record.

Records the source revision (when the checkout is a git work tree),
the host's CPU model, usable CPU count and cache sizes, and the
numerical stack's versions -- enough to tell whether two records were
measured on comparable code and hardware.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional

_CACHE_ROOT = Path("/sys/devices/system/cpu/cpu0/cache")
_SIZE_SUFFIX = {"K": 1024, "M": 1024 * 1024, "G": 1024 * 1024 * 1024}


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_revision(root: Path) -> Dict[str, object]:
    """Git revision and dirty flag; ``unknown`` outside a git work tree.

    Only a ``.git`` directly under ``root`` counts, so a checkout that
    happens to sit inside some other repository is not misattributed.
    """
    if not (root / ".git").exists():
        return {"rev": "unknown", "dirty": None}
    rev = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "rev": rev or "unknown",
        "dirty": None if status is None else bool(status),
    }


def _parse_size(text: str) -> int:
    text = text.strip()
    if text and text[-1] in _SIZE_SUFFIX:
        return int(text[:-1]) * _SIZE_SUFFIX[text[-1]]
    return int(text)


def cache_sizes() -> Dict[str, int]:
    """Unified/data cache sizes in bytes by level (``l1d``, ``l2``, ``l3``).

    Missing entries mean the kernel does not expose that level; callers
    treat an absent size as unknown rather than zero.
    """
    sizes: Dict[str, int] = {}
    if not _CACHE_ROOT.is_dir():
        return sizes
    for index in sorted(_CACHE_ROOT.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = _parse_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        sizes["l1d" if level == "1" else f"l{level}"] = size
    return sizes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def provenance(root: Path, workload: str, seed: int, trace: bool) -> Dict[str, object]:
    """The provenance block of one result record."""
    import numpy
    import scipy

    caches = cache_sizes()
    return {
        "source": source_revision(root),
        "host": {
            "cpu_model": cpu_model(),
            "nproc": usable_cpus(),
            "l2_bytes": caches.get("l2"),
            "l3_bytes": caches.get("l3"),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }
