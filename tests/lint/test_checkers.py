"""Per-checker unit tests: known-bad snippets produce the expected
findings, and the matching known-good variants produce none."""

import textwrap
from pathlib import Path

from repro.lint import FileContext
from repro.lint.checkers.api import ApiAllChecker
from repro.lint.checkers.determinism import DeterminismChecker
from repro.lint.checkers.docs import ModuleDocChecker
from repro.lint.checkers.floats import FloatSafetyChecker


def check(checker, source, module="repro.core.fixture"):
    ctx = FileContext.from_source(
        Path("fixture.py"), textwrap.dedent(source), module=module
    )
    return list(checker.check_file(ctx))


def rule_ids(findings):
    return [f.rule for f in findings]


class TestDeterminism:
    def test_det001_global_random(self):
        found = check(DeterminismChecker(), "import random\nrandom.random()\n")
        assert rule_ids(found) == ["DET001"]
        assert "random.random" in found[0].message

    def test_det001_numpy_global_stream(self):
        src = "import numpy as np\nnp.random.rand(3)\n"
        assert rule_ids(check(DeterminismChecker(), src)) == ["DET001"]

    def test_det001_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rule_ids(check(DeterminismChecker(), src)) == ["DET001"]

    def test_seeded_default_rng_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert check(DeterminismChecker(), src) == []

    def test_det002_wall_clock_in_deterministic_layer(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        found = check(DeterminismChecker(), src, module="repro.core.x")
        assert rule_ids(found) == ["DET002"]

    def test_det002_not_outside_deterministic_layers(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert check(DeterminismChecker(), src, module="repro.analysis.x") == []

    def test_perf_counter_allowed(self):
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert check(DeterminismChecker(), src, module="repro.core.x") == []

    def test_det003_set_loop_accumulates(self):
        src = """
            def f(s):
                out = []
                for x in set(s):
                    out.append(x)
                return out
        """
        assert rule_ids(check(DeterminismChecker(), src)) == ["DET003"]

    def test_det003_sorted_loop_clean(self):
        src = """
            def f(s):
                out = []
                for x in sorted(set(s)):
                    out.append(x)
                return out
        """
        assert check(DeterminismChecker(), src) == []

    def test_det003_membership_only_loop_clean(self):
        src = """
            def f(s):
                for x in set(s):
                    if x > 2:
                        return True
                return False
        """
        assert check(DeterminismChecker(), src) == []

    def test_det003_list_comprehension_over_set(self):
        src = "def f(s):\n    return [x + 1 for x in set(s)]\n"
        assert rule_ids(check(DeterminismChecker(), src)) == ["DET003"]

    def test_det003_order_free_consumer_clean(self):
        src = "def f(s):\n    return sorted(x + 1 for x in set(s))\n"
        assert check(DeterminismChecker(), src) == []

    def test_det004_id_sort_key(self):
        src = "def f(xs):\n    return sorted(xs, key=lambda v: id(v))\n"
        assert rule_ids(check(DeterminismChecker(), src)) == ["DET004"]

    def test_det004_id_comparison(self):
        src = "def f(a, b):\n    return id(a) < id(b)\n"
        assert rule_ids(check(DeterminismChecker(), src)) == ["DET004"]

    def test_stable_key_sort_clean(self):
        src = "def f(xs):\n    return sorted(xs, key=lambda v: v.doc_id)\n"
        assert check(DeterminismChecker(), src) == []


class TestFloatSafety:
    def test_flt001_float_literal(self):
        found = check(FloatSafetyChecker(), "def f(x):\n    return x == 0.5\n")
        assert rule_ids(found) == ["FLT001"]

    def test_flt001_fires_outside_convergence_layers_too(self):
        src = "def f(x):\n    return x != 1e-3\n"
        found = check(FloatSafetyChecker(), src, module="helpers")
        assert rule_ids(found) == ["FLT001"]

    def test_flt002_convergence_names(self):
        src = "def f(residual, epsilon):\n    return residual == epsilon\n"
        found = check(FloatSafetyChecker(), src, module="repro.core.x")
        assert rule_ids(found) == ["FLT002"]

    def test_flt002_scoped_to_convergence_layers(self):
        src = "def f(residual, epsilon):\n    return residual == epsilon\n"
        assert check(FloatSafetyChecker(), src, module="helpers") == []

    def test_plain_names_clean(self):
        src = "def f(x, y):\n    return x == y\n"
        assert check(FloatSafetyChecker(), src, module="repro.core.x") == []

    def test_int_literal_clean(self):
        src = "def f(x):\n    return x == 3\n"
        assert check(FloatSafetyChecker(), src) == []


class TestOneSummationOrder:
    def test_flt003_weighted_bincount(self):
        src = "import numpy as np\nacc = np.bincount(rows, weights=w, minlength=n)\n"
        found = check(FloatSafetyChecker(), src, module="repro.p2p.peer")
        assert rule_ids(found) == ["FLT003"]

    def test_flt003_positional_weights_and_from_import(self):
        src = "from numpy import bincount\nacc = bincount(rows, w)\n"
        assert rule_ids(check(FloatSafetyChecker(), src)) == ["FLT003"]

    def test_unweighted_bincount_clean(self):
        src = "import numpy as np\ncounts = np.bincount(rows, minlength=n)\n"
        assert check(FloatSafetyChecker(), src, module="repro.p2p.network") == []

    def test_kernels_module_exempt(self):
        src = "import numpy as np\nacc = np.bincount(rows, weights=w)\n"
        assert check(FloatSafetyChecker(), src, module="repro.core.kernels") == []


class TestApiAll:
    def test_api001_phantom_export(self):
        src = '__all__ = ["ghost"]\n\n\ndef real():\n    return 1\n'
        found = check(ApiAllChecker(), src, module="repro.fake")
        assert rule_ids(found) == ["API001", "API002"]

    def test_api002_missing_all(self):
        src = "def public_thing():\n    return 1\n"
        found = check(ApiAllChecker(), src, module="repro.fake")
        assert rule_ids(found) == ["API002"]
        assert "declares no __all__" in found[0].message

    def test_private_module_exempt(self):
        src = "def public_thing():\n    return 1\n"
        assert check(ApiAllChecker(), src, module="repro._util.fake") == []

    def test_non_repro_module_exempt(self):
        src = "def public_thing():\n    return 1\n"
        assert check(ApiAllChecker(), src, module="scripts.helper") == []

    def test_truthful_all_clean(self):
        src = '__all__ = ["real"]\n\n\ndef real():\n    return 1\n'
        assert check(ApiAllChecker(), src, module="repro.fake") == []

    def test_underscore_defs_need_no_export(self):
        src = '__all__ = ["real"]\n\n\ndef real():\n    return 1\n\n\ndef _helper():\n    return 2\n'
        assert check(ApiAllChecker(), src, module="repro.fake") == []


class TestModuleDocs:
    def test_doc001_missing_docstring(self):
        src = '__all__ = ["f"]\n\n\ndef f():\n    return 1\n'
        found = check(ModuleDocChecker(), src, module="repro.fake")
        assert rule_ids(found) == ["DOC001"]
        assert "no module docstring" in found[0].message

    def test_doc002_uncited_docstring(self):
        src = '"""Nice words, zero references."""\n__all__ = ["f"]\n\n\ndef f():\n    return 1\n'
        found = check(ModuleDocChecker(), src, module="repro.fake")
        assert rule_ids(found) == ["DOC002"]

    def test_paper_section_citation_clean(self):
        src = '"""Implements the store-and-resend path (§3.1)."""\n'
        assert check(ModuleDocChecker(), src, module="repro.fake") == []

    def test_table_citation_clean(self):
        src = '"""Reproduces Table 3 message traffic."""\n'
        assert check(ModuleDocChecker(), src, module="repro.fake") == []

    def test_docs_page_citation_clean(self):
        src = '"""Specified by docs/STATIC_ANALYSIS.md."""\n'
        assert check(ModuleDocChecker(), src, module="repro.fake") == []

    def test_private_module_exempt(self):
        src = "def f():\n    return 1\n"
        assert check(ModuleDocChecker(), src, module="repro._util.fake") == []

    def test_dunder_module_is_public(self):
        src = "def f():\n    return 1\n"
        found = check(ModuleDocChecker(), src, module="repro.__main__")
        assert rule_ids(found) == ["DOC001"]

    def test_non_repro_module_exempt(self):
        src = "def f():\n    return 1\n"
        assert check(ModuleDocChecker(), src, module="scripts.helper") == []
