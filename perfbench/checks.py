"""Outcome bookkeeping shared by the workloads.

``run`` keeps an exception a call raises as that call's outcome (``attempt``),
and ``check`` judges each outcome.  An item is "ok", "error" (a call raised
where a value or another exception was expected: a loud failure) or "wrong"
(a call returned a value the independent check rejects, or returned where
it should have raised: a silent wrong answer).
"""

from __future__ import annotations


class Failure(Exception):
    def __init__(self, status: str, reason: str):
        super().__init__(reason)
        self.status = status
        self.reason = reason


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the call's outcome; check() judges it
        return exc


def value(name, out):
    """The call must have returned normally."""
    if isinstance(out, Exception):
        raise Failure("error", f"{name} raised {type(out).__name__}")
    return out


def raised(name, out, types):
    """The call must have raised one of ``types``."""
    if isinstance(out, types):
        return
    if isinstance(out, Exception):
        raise Failure("error", f"{name} raised {type(out).__name__}")
    raise Failure("wrong", f"{name} returned instead of raising")


def require(cond, reason):
    if not cond:
        raise Failure("wrong", reason)


def judge(check, *args) -> tuple[str, str | None]:
    """Run a check; a check that trips over a malformed output counts the
    output as wrong."""
    try:
        check(*args)
    except Failure as f:
        return f.status, f.reason
    except Exception as exc:
        return "wrong", f"malformed output ({type(exc).__name__}: {exc})"
    return "ok", None
