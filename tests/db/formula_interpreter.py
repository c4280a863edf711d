"""The per-world formula interpreter: the oracle of ``truth_table``.

:func:`repro.db.formula.truth_table` builds a formula's mask with a few
big-int operations per node.  :func:`eval_formula` evaluates the formula at
one world, the direct way; bit ``ω`` of ``truth_table(formula, n)`` must
equal ``eval_formula(formula, ω)``.
"""

from __future__ import annotations

from repro.db.formula import AndF, AtLeastF, ConstF, Formula, NotF, OrF, Var


def eval_formula(formula: Formula, world: int) -> bool:
    """Truth of ``formula`` at one world (bit ``i-1`` = variable ``i``).

    :class:`AtLeastF` is counted directly, never expanded.
    """
    if isinstance(formula, ConstF):
        return formula.value
    if isinstance(formula, Var):
        return bool((world >> (formula.index - 1)) & 1)
    if isinstance(formula, NotF):
        return not eval_formula(formula.inner, world)
    if isinstance(formula, AndF):
        return all(eval_formula(a, world) for a in formula.args)
    if isinstance(formula, OrF):
        return any(eval_formula(a, world) for a in formula.args)
    if isinstance(formula, AtLeastF):
        count = 0
        for a in formula.args:
            if eval_formula(a, world):
                count += 1
                if count >= formula.threshold:
                    return True
        return False
    raise TypeError(f"not a formula: {formula!r}")
