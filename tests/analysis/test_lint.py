"""Determinism/unit lint: the shipped tree is clean, seeded sins fire.

Fixture snippets are written into a fake package layout under tmp_path
(``core/`` counts as a deterministic package, ``metrics/`` does not) so
the restricted-package gating is exercised, not just the AST matching.
The flow-sensitive families (L300/L310/L320) have their own dedicated
test modules; this one covers the front end — root-independent
scoping, suppressions, selection — and the single-expression L20x
rules.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import LINT_RULES, RESTRICTED_PACKAGES, lint_file, lint_paths
from repro.util.errors import ConfigurationError

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "pkg"
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
    return root


def rules_fired(report) -> set[str]:
    return {v.rule for v in report.violations}


def test_shipped_tree_is_clean():
    report = lint_paths([REPO_SRC])
    assert report.ok, report.render()
    assert report.violations == []


def test_syntax_error_is_l200(tmp_path):
    root = write_tree(tmp_path, {"core/bad.py": "def broken(:\n"})
    assert rules_fired(lint_paths([root])) == {"L200"}


def test_unseeded_random_in_core_is_l310(tmp_path):
    # The historical L201 cases now fire as L310 (taint analysis).
    root = write_tree(tmp_path, {
        "core/a.py": "import random\nx = random.random()\n",
        "core/b.py": "import numpy as np\nnp.random.shuffle([1])\n",
        "core/c.py": "import random\nrng = random.Random()\n",
    })
    report = lint_paths([root])
    assert rules_fired(report) == {"L310"}
    assert len(report.violations) == 3


def test_seeded_rng_is_allowed(tmp_path):
    root = write_tree(tmp_path, {
        "core/ok.py": (
            "import random\nimport numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "ss = np.random.SeedSequence(7)\n"
            "r = random.Random(7)\n"
        ),
    })
    assert lint_paths([root]).ok


def test_rng_outside_restricted_packages_is_allowed(tmp_path):
    # metrics/ is not in the deterministic set (campaign now is).
    root = write_tree(tmp_path, {
        "metrics/jitter.py": "import random\nx = random.random()\n",
    })
    assert lint_paths([root]).ok


def test_campaign_and_serve_joined_restricted_set():
    assert {"serve", "client", "campaign", "cluster"} <= RESTRICTED_PACKAGES
    assert {"core", "io", "sim", "faults"} <= RESTRICTED_PACKAGES


def test_wallclock_in_campaign_is_l202(tmp_path):
    # Scope extension: campaign joined the deterministic set.
    root = write_tree(tmp_path, {
        "campaign/clock.py": "import time\nt = time.time()\n",
    })
    assert rules_fired(lint_paths([root])) == {"L202"}


def test_top_level_client_module_is_restricted(tmp_path):
    # client is a top-level module (client.py), matched by stem.
    root = write_tree(tmp_path, {
        "client.py": "import time\nt = time.time()\n",
    })
    assert rules_fired(lint_paths([root])) == {"L202"}


def test_wallclock_in_sim_is_l202(tmp_path):
    root = write_tree(tmp_path, {
        "sim/clock.py": (
            "import time\nfrom datetime import datetime\n"
            "t = time.time()\n"
            "n = datetime.now()\n"
        ),
    })
    report = lint_paths([root])
    assert rules_fired(report) == {"L202"}
    assert len(report.violations) == 2


def test_perf_counter_is_not_wallclock(tmp_path):
    root = write_tree(tmp_path, {
        "io/timer.py": "import time\nt = time.perf_counter()\n",
    })
    assert lint_paths([root]).ok


def test_unit_mixing_is_l320(tmp_path):
    # The historical L203 cases now fire as L320 (dimension lattice).
    root = write_tree(tmp_path, {
        "util/mix.py": (
            "def f(cap_mib, used_bytes):\n"
            "    return cap_mib - used_bytes\n"
        ),
        "util/cmp.py": (
            "def g(cap_mib, used_bytes):\n"
            "    return cap_mib < used_bytes\n"
        ),
        "util/conv.py": (
            "from repro.util import mib\n"
            "def h(n_bytes):\n"
            "    return mib(n_bytes)\n"
        ),
        "util/assign.py": (
            "from repro.util import mib\n"
            "budget_mib = mib(16)\n"
        ),
    })
    report = lint_paths([root])
    assert rules_fired(report) == {"L320"}
    assert len(report.violations) == 4


def test_same_unit_arithmetic_is_allowed(tmp_path):
    root = write_tree(tmp_path, {
        "util/ok.py": (
            "def f(a_bytes, b_bytes, c_mib, d_mib):\n"
            "    return (a_bytes + b_bytes, c_mib - d_mib)\n"
        ),
    })
    assert lint_paths([root]).ok


def test_frozen_mutation_outside_post_init_is_l204(tmp_path):
    root = write_tree(tmp_path, {
        "faults/spec.py": (
            "class Spec:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'n', 1)\n"  # allowed
            "    def clamp(self):\n"
            "        object.__setattr__(self, 'n', 2)\n"  # L204
        ),
    })
    report = lint_paths([root])
    assert rules_fired(report) == {"L204"}
    assert len(report.violations) == 1
    assert report.violations[0].line == 5


def test_unbounded_sim_run_is_l205(tmp_path):
    root = write_tree(tmp_path, {
        "faults/drv.py": (
            "def go(sim, horizon):\n"
            "    sim.run()\n"  # L205
            "    sim.run(until=horizon)\n"  # bounded, fine
            "    sim.run(horizon)\n"  # positional bound, fine
        ),
        "io/drv.py": (
            "class R:\n"
            "    def go(self, horizon):\n"
            "        self.sim.run()\n"  # L205 via attribute receiver
        ),
    })
    report = lint_paths([root])
    assert rules_fired(report) == {"L205"}
    assert len(report.violations) == 2


def test_suppression_comment_disables_rule(tmp_path):
    root = write_tree(tmp_path, {
        "core/sup.py": (
            "import random\n"
            "x = random.random()  # repro-lint: disable=L310\n"
            "y = random.random()  # repro-lint: disable=all\n"
            "z = random.random()  # repro-lint: disable=L202\n"  # wrong code
        ),
    })
    report = lint_paths([root])
    assert len(report.violations) == 1
    assert report.violations[0].line == 4


def test_suppression_family_wildcard(tmp_path):
    # L3xx silences the whole flow family but not the L20x rules.
    root = write_tree(tmp_path, {
        "core/wild.py": (
            "import random, time\n"
            "x = random.random()  # repro-lint: disable=L3xx\n"
            "t = time.time()  # repro-lint: disable=L3xx\n"  # L202 stays
        ),
    })
    report = lint_paths([root])
    assert rules_fired(report) == {"L202"}
    assert len(report.violations) == 1


def test_suppression_mixed_old_and_new_on_one_line(tmp_path):
    # Comma list combining an L20x code and an L3xx wildcard.
    root = write_tree(tmp_path, {
        "core/both.py": (
            "import random, time\n"
            "x = random.random() + time.time()"
            "  # repro-lint: disable=L202,L3xx\n"
        ),
        "core/partial.py": (
            "import random, time\n"
            "y = random.random() + time.time()"
            "  # repro-lint: disable=L202,L999\n"  # L310 not covered
        ),
    })
    report = lint_paths([root])
    assert rules_fired(report) == {"L310"}
    assert [v.file for v in report.violations] == ["core/partial.py"]


def test_rule_selection_filters(tmp_path):
    root = write_tree(tmp_path, {
        "core/two.py": (
            "import random, time\n"
            "x = random.random()\n"
            "t = time.time()\n"
        ),
    })
    report = lint_paths([root], rules=["L202"])
    assert rules_fired(report) == {"L202"}


def test_lint_file_single_path(tmp_path):
    path = tmp_path / "solo.py"
    path.write_text("import random\nx = random.random()\n")
    # a bare file is not inside a restricted package dir -> clean
    assert lint_file(path) == []


def test_every_rule_documented():
    assert set(LINT_RULES) == {
        "L200", "L202", "L204", "L205", "L300", "L310", "L320",
    }
    assert all(summary.strip() for summary in LINT_RULES.values())


def test_unknown_rule_selection_is_rejected(tmp_path):
    root = write_tree(tmp_path, {"core/a.py": "x = 1\n"})
    # retired codes are unknown codes
    for retired in ("L201", "L301", "L302"):
        with pytest.raises(ConfigurationError, match=retired):
            lint_paths([root], rules=[retired])
    with pytest.raises(ConfigurationError, match="L999"):
        lint_file(root / "core" / "a.py", rules=["L310", "L999"])
    assert lint_paths([root], rules=["l310"]).ok


def test_fixtures_root_finds_every_case():
    # Rooted one level above the per-case directories, each fixture's
    # package is its second path component; scoping must still see it.
    report = lint_paths([FIXTURES])
    assert report.by_rule() == {"L300": 6, "L310": 6, "L320": 7}
    union = sorted(
        (v.rule, f"{case.name}/{v.file}", v.line)
        for case in sorted(FIXTURES.iterdir())
        if case.is_dir()
        for v in lint_paths([case]).violations
    )
    assert sorted((v.rule, v.file, v.line) for v in report.violations) == union


def test_findings_do_not_depend_on_lint_root(tmp_path):
    # client.py scopes by stem and serve/ by directory at any depth.
    root = write_tree(tmp_path, {
        "repro/client.py": "import time\nt = time.time()\n",
        "repro/serve/h.py": (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)\n"
        ),
    })

    def found(base, prefix=""):
        return [(v.rule, prefix + (v.file or ""), v.line) for v in lint_paths([base]).violations]

    assert {rule for rule, _, _ in found(root)} == {"L202", "L300"}
    assert found(root / "repro", "repro/") == found(root)
    assert found(REPO_SRC, "repro/") == found(REPO_SRC.parent)
