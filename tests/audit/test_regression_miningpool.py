"""Regression: the audit must re-detect the PR 1 ``MiningPool`` bug.

The original bug: a module-level ``itertools.count()`` handed out pool
ids, so block hashes (seeded from pool ids) depended on how many pools
*any earlier trial in the same process* had created.  Per-file RPL102
mechanised the single-file review that found it.  These tests prove
the whole-program audit re-detects the same bug class when it is
reintroduced *behind at least one level of cross-module indirection* —
where the per-file rule is structurally blind.
"""

from repro.audit import run_audit
from repro.lint import lint_file

_ENGINE = (
    "class TrialEngine:\n"
    "    def map(self, fn, trials):\n"
    "        return [fn(t) for t in trials]\n"
)

#: The counter module: defines the process-global, mutates nothing.
_IDS = (
    "# repro-lint: disable-file regression fixture: reintroduced MiningPool bug\n"
    "import itertools\n"
    "\n"
    "POOL_IDS = itertools.count()\n"
)

#: The indirection layer: mutates state it imported.
_POOL = (
    "# repro-lint: disable-file regression fixture: reintroduced MiningPool bug\n"
    "from .ids import POOL_IDS\n"
    "\n"
    "\n"
    "class MiningPool:\n"
    "    def __init__(self, hash_share):\n"
    "        self.pool_id = next(POOL_IDS)\n"
    "        self.hash_share = hash_share\n"
    "\n"
    "\n"
    "def build_pools(shares):\n"
    "    return [MiningPool(share) for share in shares]\n"
)

#: The dispatch layer: per-file clean, the bug is two imports away.
_WORKER = (
    "from .engine import TrialEngine\n"
    "from .pool import build_pools\n"
    "\n"
    "\n"
    "def _trial(trial):\n"
    "    pools = build_pools(trial)\n"
    "    return [p.pool_id for p in pools]\n"
    "\n"
    "\n"
    "def run_all(trials):\n"
    "    engine = TrialEngine()\n"
    "    return engine.run(_trial, trials).payloads\n"
)


def _build(make_package):
    return make_package(
        "miningpool",
        {
            "engine.py": _ENGINE,
            "ids.py": _IDS,
            "pool.py": _POOL,
            "worker.py": _WORKER,
        },
    )


class TestMiningPoolRegression:
    def test_rpl203_fires_through_cross_module_indirection(self, make_package):
        root = _build(make_package)
        report = run_audit([root], suppressions="line")
        rpl203 = [f for f in report.findings if f.rule_id == "RPL203"]
        assert len(rpl203) == 1
        (finding,) = rpl203
        # Attributed to the worker, with the chain down to the counter.
        assert finding.path.endswith("worker.py")
        assert "POOL_IDS" in finding.message
        assert "_trial" in finding.message

    def test_detection_survives_the_class_closure(self, make_package):
        """The mutation hides inside ``MiningPool.__init__``, reached
        only because ``build_pools`` *instantiates* the class — the
        over-approximation that makes escaped instances auditable."""
        root = _build(make_package)
        report = run_audit([root], suppressions="line")
        (finding,) = [f for f in report.findings if f.rule_id == "RPL203"]
        assert "MiningPool.__init__" in finding.message

    def test_per_file_lint_is_blind_to_the_split_bug(self, make_package):
        """The motivation for the audit: once the counter and its
        mutation live in different modules, per-file RPL102 passes
        every file — only the whole-program view still catches it."""
        root = _build(make_package)
        for name in ("ids.py", "pool.py", "worker.py"):
            report = lint_file(root / name, suppressions="line")
            assert report.findings == [], name

    def test_fix_by_scoping_per_instance_goes_silent(self, make_package):
        root = make_package(
            "miningpool_fixed",
            {
                "engine.py": _ENGINE,
                "pool.py": (
                    "import itertools\n"
                    "\n"
                    "\n"
                    "class MiningPool:\n"
                    "    def __init__(self, pool_id, hash_share):\n"
                    "        self.pool_id = pool_id\n"
                    "        self.hash_share = hash_share\n"
                    "\n"
                    "\n"
                    "def build_pools(shares):\n"
                    "    ids = itertools.count()\n"
                    "    return [MiningPool(next(ids), share) for share in shares]\n"
                ),
                "worker.py": _WORKER,
            },
        )
        report = run_audit([root], suppressions="line")
        assert report.findings == []
