"""Shared pieces of the benchmark: locating the program, calling its CLI
in-process, and the checks' failure type."""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def add_source_path() -> None:
    """Import ``structent`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "structent", "__init__.py")):
        raise SystemExit(f"perfbench: no structent sources under {SRC}")
    sys.path.insert(0, SRC)
    os.environ.pop("STRUCTENT_LOG_BASE", None)  # every check reads bits


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own check."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(got: float, want: float, what: str, tol: float = 1e-9) -> None:
    expect(
        abs(got - want) <= tol * max(1.0, abs(want)),
        f"{what}: program {got!r}, expected {want!r}",
    )


@dataclass
class Op:
    """One completed call into the program."""

    label: str
    rc: int
    out: str
    meta: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.rc == 0


def run_cli(label: str, argv: list[str]) -> Op:
    """``structent.cli.main(argv)`` with stdout captured.  An exception
    escaping the CLI is reported on stderr and counts as a failed call."""
    from structent import cli

    buf = io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 64
    except Exception:  # a raw exception is a failed operation, not a crash
        sys.stderr.write(f"perfbench: {label} raised\n{traceback.format_exc()}")
        rc = -1
    return Op(label, rc, buf.getvalue(), seconds=time.perf_counter() - t)


def read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path
