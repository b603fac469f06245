"""Error types shared across the engine.

``SchemaError`` marks malformed input files or values (CLI exit code 2).
``ConventionError`` (CLI exit code 3) marks an invariant violation: a
completion that would change an initial wall, or a step of the completion's
peel that does not advance counterclockwise past the ray before it.  On a
correct engine only the first fires, and only on inputs whose initial walls
are not the completion's factors; the second stops a wrong factor or inverse
at once instead of letting the peel run on.
"""


class SchemaError(ValueError):
    pass


class ConventionError(RuntimeError):
    pass
