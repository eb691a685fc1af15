"""RPL101 global-rng: draws must flow through RngStreams/derive_seed.

Calling module-level ``random.*`` or ``numpy.random.*`` functions uses
the *process-global* generator: its state is shared by every component
in the process, so adding, removing, or reordering any consumer of
randomness silently perturbs every other consumer — and two
same-seeded simulator instances stop being bit-identical, which is the
property the parallel trial engine (and every published artifact)
rests on.

Constructing an explicitly seeded generator object is the sanctioned
alternative, so ``random.Random(derive_seed(...))`` and
``numpy.random.default_rng(seed)`` pass; the *zero-argument* forms
seed from OS entropy and are flagged, as are the explicit-``None``
spellings (``default_rng(None)``, ``default_rng(seed=None)``) which
NumPy documents as equivalent to no seed at all.
"""

from __future__ import annotations

import ast
from typing import List

from ..core import Finding, ModuleInfo
from .base import Rule

__all__ = ["GlobalRngRule"]

#: Generator constructors that are deterministic when given a seed (or,
#: for ``Generator``/``RandomState``, an explicit bit generator).
_SEEDED_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.SFC64",
        "numpy.random.MT19937",
    }
)


def _explicit_none_seed(node: ast.Call) -> bool:
    """True when a seeded constructor is passed a literal ``None`` seed.

    ``default_rng(None)`` / ``RandomState(seed=None)`` look seeded but
    NumPy treats them exactly like the zero-argument forms: fresh OS
    entropy on every construction.
    """
    if node.args:
        first = node.args[0]
        if isinstance(first, ast.Constant) and first.value is None:
            return True
    for keyword in node.keywords:
        if keyword.arg == "seed":
            value = keyword.value
            if isinstance(value, ast.Constant) and value.value is None:
                return True
    return False


class GlobalRngRule(Rule):
    rule_id = "RPL101"
    name = "global-rng"
    summary = "call to the process-global random/numpy.random generator"
    rationale = (
        "Draws from the shared module-level generator couple every "
        "consumer of randomness in the process; derive a stream via "
        "RngStreams/derive_seed (or construct random.Random(seed) / "
        "numpy.random.default_rng(seed) explicitly) instead."
    )

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in module.index.of(ast.Call):
            canonical = module.resolve(node.func)
            if canonical is None:
                continue
            in_random = canonical.startswith("random.")
            in_np_random = canonical.startswith("numpy.random.")
            if not (in_random or in_np_random):
                continue
            if canonical in _SEEDED_CONSTRUCTORS:
                if (node.args or node.keywords) and not _explicit_none_seed(node):
                    continue  # explicitly seeded construction
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{canonical}() without a seed draws OS entropy; "
                        "pass a seed from RngStreams/derive_seed",
                    )
                )
                continue
            findings.append(
                self.finding(
                    module,
                    node,
                    f"call to process-global {canonical}(); route randomness "
                    "through RngStreams/derive_seed (or a seeded generator "
                    "instance) so draws stay per-instance deterministic",
                )
            )
        return findings
