"""The three error types; `cli.run_subcommand` picks the exit code from the type alone.

InputError -> exit 2 (bad arguments, a malformed file, a value outside a
checked range), DecompositionError -> exit 3 (a constructive decomposition's
inequality fails: a negative verdict), anything else -> exit 4. InternalError
marks a failed self-check, such as a witness that does not re-verify.
"""


class InputError(ValueError):
    pass


class DecompositionError(InputError):
    """A constructive decomposition's inequality precondition fails."""


class InternalError(RuntimeError):
    pass
