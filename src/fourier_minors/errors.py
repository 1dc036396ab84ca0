class PreconditionError(ValueError):
    """An operation was called outside its stated domain.

    Distinct from plain usage errors so the CLI can map it to exit code 2.
    """


class WorkerError(RuntimeError):
    """A `--jobs` worker process died; the CLI maps it to exit code 5."""
