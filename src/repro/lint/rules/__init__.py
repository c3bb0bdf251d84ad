"""Built-in determinism rules.

One module per invariant family — RNG discipline (:mod:`.rng`), canonical-output
hygiene (:mod:`.canonical`), wall-clock containment (:mod:`.wallclock`) and
hot-path ``__slots__`` coverage (:mod:`.slots`). Each registers its rules at
import time via :func:`repro.lint.registry.register_rule`; the engine imports
them lazily through :func:`repro.lint.registry.load_builtin_rules`.
"""
