"""One integer rule for every public integer parameter and index.

An integer is a Python int that is not a bool (of any size), a NumPy
integer, or an integer-dtype array; a bool or a float is rejected by name
and never truncated.  The rule lives in ``tiara.errors`` alone.
"""

import ast
import re
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

import tiara
from tiara import (ConfigError, ValidationError, build_reweight_matrix, conditioning, dft, dstft,
                   gen_homogeneous_attention, gen_inconsistent_values, inconsistency_error,
                   estimate_kappa, inconsistency_profile, interpolation_weight, make_schedule, make_window,
                   motion_intensity, pad_periodic, row_spectrum, write_tensor)
from tiara.config import Config
from tiara.errors import _shown
from tiara.tensorfile import Blocks

_X = np.arange(8.0)
_W = make_window("hann", 3)
_SCHEDULE = make_schedule([(0, 4), (8, 12)], (0.6, 1.0), 8)
_EMBEDDED = np.zeros((2, 3, 2))

# (function, name in the message, its bound, call with the parameter set to v, a valid value)
INTEGER_PARAMETERS = [
    ("make_window", "window length", " >= 1", lambda v: make_window("hann", v), 5),
    ("build_reweight_matrix", "corner_size", " >= 0",
     lambda v: build_reweight_matrix(np.ones(8), 1.0, v), 2),
    ("motion_intensity", "phi1", " >= 0", lambda v: motion_intensity(_X, _W, 0, v), 1),
    ("motion_intensity", "phi2", " >= 1", lambda v: motion_intensity(_X, _W, 0, 0, v), 3),
    ("inconsistency_profile", "k_threshold", " >= 1", lambda v: inconsistency_profile(_X, _W, v), 2),
    ("make_schedule", "layer_threshold", " >= 0",
     lambda v: make_schedule([(0, 4)], (0.6, 1.0), v), 8),
    ("conditioning", "d", " >= 0", lambda v: conditioning(_SCHEDULE, _EMBEDDED, 6, 0.0, v), 0),
    ("gen_inconsistent_values", "seed", " >= 0", lambda v: gen_inconsistent_values(8, 1.0, 1e-4, v), 3),
    ("gen_homogeneous_attention", "n", " >= 2", lambda v: gen_homogeneous_attention(v, 1.0), 8),
    ("gen_inconsistent_values", "n", " >= 2", lambda v: gen_inconsistent_values(v, 1.0, 1e-4, 0), 8),
    ("dstft", "m", "", lambda v: dstft(_X, _W, v, 1), 2),
    ("row_spectrum", "row index", "", lambda v: row_spectrum(_X, _W, v), 2),
    ("motion_intensity", "row index", "", lambda v: motion_intensity(_X, _W, v), 2),
    ("inconsistency_error", "tau", "", lambda v: inconsistency_error(_X, _W, v, 2), 3),
    ("dft", "frequency index", "", lambda v: dft(_X, v), 2),
    ("dstft", "frequency index", "", lambda v: dstft(_X, _W, 0, v), 2),
    ("conditioning", "frame", "", lambda v: conditioning(_SCHEDULE, _EMBEDDED, v, 0.5, 0), 6),
    ("interpolation_weight", "frame", "", lambda v: interpolation_weight(v, 5, 8), 6),
    ("pad_periodic", "left", " >= 0", lambda v: pad_periodic(_X, v, 0), 2),
    ("pad_periodic", "right", " >= 0", lambda v: pad_periodic(_X, 0, v), 2),
    ("make_schedule", "span start", "", lambda v: make_schedule([(v, 4)], (0.6, 1.0), 8), 0),
    ("make_schedule", "span end", "", lambda v: make_schedule([(0, v)], (0.6, 1.0), 8), 4),
    ("interpolation_weight", "n_end", "", lambda v: interpolation_weight(6, v, 8), 5),
    ("interpolation_weight", "next_start", "", lambda v: interpolation_weight(6, 5, v), 8),
]
# an id names the parameter as its message does, but the row index by its argument, i
_IDS = [f"{function}-{'i' if name == 'row index' else name}" for function, name, *_ in INTEGER_PARAMETERS]


@pytest.mark.parametrize("value, got", [(True, "True (dtype bool)"), (np.True_, "True (dtype bool)"),
                                        (1.5, "1.5 (dtype float64)"), (np.nan, "nan (dtype float64)")],
                         ids=["True", "np.True_", "1.5", "nan"])
@pytest.mark.parametrize("function, name, bound, call, valid", INTEGER_PARAMETERS, ids=_IDS)
def test_non_integer_rejected_by_name(function, name, bound, call, valid, value, got):
    # True ran as 1 wherever the check was isinstance(v, (int, np.integer))
    message = f"{name} must be an integer{bound}, got {got}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("function, name, bound, call, valid", INTEGER_PARAMETERS, ids=_IDS)
def test_numpy_integer_accepted(function, name, bound, call, valid):
    call(np.int64(valid))


@pytest.mark.parametrize("function, name, bound, call, valid", INTEGER_PARAMETERS, ids=_IDS)
def test_arrays_only_where_the_parameter_takes_them(function, name, bound, call, valid):
    # an array for a scalar parameter raised a TypeError or ValueError past the check
    if (function, name) in {("row_spectrum", "row index"), ("conditioning", "frame"),
                            ("interpolation_weight", "frame")}:
        call(np.full(2, valid))
    else:
        message = f"{name} must be an integer{bound}, got an array of shape (2,)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(np.full(2, valid))


def test_big_python_ints_stay_integers():
    big = 2**70
    values = gen_inconsistent_values(8, 1.0, 1e-4, big)
    assert not np.array_equal(values, gen_inconsistent_values(8, 1.0, 1e-4, big % 2**64))
    # shifts are periodic
    assert dstft(_X, _W, big, 1) == dstft(_X, _W, big % 8, 1)
    assert inconsistency_error(_X, _W, big, 2) == inconsistency_error(_X, _W, big % 8, 2)
    with pytest.raises(ValidationError, match=f"^frame {big} out of range"):
        conditioning(_SCHEDULE, _EMBEDDED, big, 0.5, 0)


_HUGE = "<integer of 5001 digits>"  # 10**5000, past the 4,300 digits str() prints


@pytest.mark.parametrize("call, error, message", [
    (lambda: make_window("hann", 10**5000), ValidationError,
     f"window length must be at most {np.iinfo(np.intp).max // 8}, the largest size whose array "
     f"fits in {np.iinfo(np.intp).max} bytes, got {_HUGE}"),
    (lambda: make_window("hann", -10**5000), ValidationError,
     f"window length must be an integer >= 1, got -{_HUGE}"),
    (lambda: interpolation_weight(6, 5, 10**5000), ValidationError,
     f"transition window [5, {_HUGE}] must lie in int64 and be less than 2**63 wide"),
    (lambda: interpolation_weight(6, 10**5000, 5), ValidationError,
     f"next span start 5 must exceed span end {_HUGE}"),
    (lambda: build_reweight_matrix(np.ones(8), 6.0, corner_size=10**5000), ValidationError,
     f"corner_size must be <= N//2 = 4, got {_HUGE}"),
    (lambda: dft(_X, 10**5000), ValidationError, f"frequency index {_HUGE} out of range [0, 8)"),
    (lambda: make_schedule([(0, 10**5000), (1, 2)], (0.6, 1.0), 8), ValidationError,
     f"span end {_HUGE} out of range [-9223372036854775808, 9223372036854775808)"),
    (lambda: row_spectrum(_X, _W, 10**5000), ValidationError, f"row index {_HUGE} out of range [0, 8)"),
    (lambda: row_spectrum(_X, _W, [10**5000]), ValidationError,
     f"row index must be an integer, got {_HUGE} (dtype object)"),
    (lambda: conditioning(_SCHEDULE, _EMBEDDED, -10**5000, 0.5, 0), ValidationError,
     f"frame -{_HUGE} out of range [0, 12)"),
    (lambda: motion_intensity(_X, _W, 0, 0, 10**5000), ValidationError,
     f"phi2 must be <= Npad//2 + 1 = 6, got {_HUGE}"),
    (lambda: motion_intensity(_X, _W, 0, 10**5000, 3), ValidationError, f"phi1 must be < phi2, got {_HUGE} >= 3"),
    (lambda: estimate_kappa(_X, _X, _W, 10**5000), ValidationError,
     f"k_threshold must be <= N//2 = 4, got {_HUGE}"),
    (lambda: write_tensor("unwritten.tf", Blocks((10**5000,), [])), ValidationError,
     f"tensor dimension must be < 2**64 (u64), got {_HUGE}"),
    (lambda: Config(corner_size=-10**5000), ConfigError, f"corner_size must be an integer >= 0, got -{_HUGE}"),
    (lambda: Config(seed=-10**5000), ConfigError, f"seed must be an integer >= 0, got -{_HUGE}"),
], ids=["window_length", "negative_window_length", "next_start", "n_end", "corner_size", "dft",
        "span_end", "row_index", "row_index_list", "frame", "phi2", "phi1", "k_threshold", "tensor_dimension",
        "config_corner_size", "config_seed"])
def test_huge_python_ints_named_by_digit_count(call, error, message):
    # printing an int of more than 4,300 digits raised "ValueError: Exceeds the limit"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("value, shown", [(10**5000 - 1, "<integer of 5000 digits>"),
                                          (-(10**4300), "-<integer of 4301 digits>"),
                                          (2**20000, "<integer of 6021 digits>"),
                                          (10**4299, str(10**4299)), (np.int64(-5), "-5")],
                         ids=["10**5000-1", "-10**4300", "2**20000", "10**4299", "int64"])
def test_shown_prints_what_str_can_and_counts_digits_past_it(value, shown):
    assert _shown(value) == shown


@pytest.mark.parametrize("dimension, got", [(2.5, "2.5 (dtype float64)"), (True, "True (dtype bool)"),
                                            (-1, "-1")])
def test_tensor_dimension_must_be_an_integer(tmp_path, dimension, got):
    # Blocks((2.5,), ...) was written as a dimension of 2
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(f'tensor dimension must be an integer >= 0, got {got}')}$"):
        write_tensor(tmp_path / "t.tf", Blocks((dimension,), [np.zeros(2)]))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, call", [
    ("alpha", lambda: build_reweight_matrix(np.full(4, 0.5), 10**400)),
    ("decay", lambda: gen_homogeneous_attention(8, 10**400)),
], ids=["build_reweight_matrix-alpha", "gen_homogeneous_attention-decay"])
def test_int_too_large_for_a_float_named(name, call):
    # math.isfinite raised a raw OverflowError that named no parameter
    message = f"{name} must be finite and >= 0, got an integer too large for a float"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_tensor_dimension_must_fit_the_header(tmp_path):
    # a dimension of 2**70 passed the integer rule and raised a raw struct.error
    message = f"tensor dimension must be < 2**64 (u64), got {2**70}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        write_tensor(tmp_path / "t.tf", Blocks((2**70,), []))
    assert not list(tmp_path.iterdir())


_LIMIT = int(np.iinfo(np.intp).max)  # the most bytes one array can hold


@pytest.mark.parametrize("size", [10**400, 2**62], ids=["10**400", "2**62"])
@pytest.mark.parametrize("name, most, call", [
    ("window length", _LIMIT // 8, lambda v: make_window("hann", v)),
    ("n", isqrt(_LIMIT // 8), lambda v: gen_homogeneous_attention(v, 1.0)),
    ("n", _LIMIT // 8, lambda v: gen_inconsistent_values(v, 1.0, 1e-4, 0)),
    ("padded length len(x) + left + right", _LIMIT // 8, lambda v: pad_periodic(_X, 0, v - 8)),
], ids=["make_window", "gen_homogeneous_attention", "gen_inconsistent_values", "pad_periodic"])
def test_size_no_array_can_hold_named(name, most, call, size):
    # NumPy raised a raw ValueError: "Maximum allowed size exceeded" or "array is too big"
    message = (f"{name} must be at most {most}, the largest size whose array fits in "
               f"{_LIMIT} bytes, got {size}")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(size)


def test_one_module_decides_integers_and_finiteness():
    """Only tiara/errors.py may test for a NumPy integer, read a dtype kind,
    or compare against np.inf: every other module calls its rules."""
    pattern = re.compile(r"np\.integer|numpy\.integer|dtype\.kind|<=? *np\.inf")
    found = [f"{path.name}:{lineno}: {line.strip()}"
             for path in sorted(Path(tiara.__file__).parent.glob("*.py")) if path.name != "errors.py"
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
             if pattern.search(line)]
    assert found == []


def test_one_module_sizes_blocks():
    """Only tiara/spectral.py may name the block budget: every blocked loop
    walks ``spectral._blocks``, so one patch forces every block size."""
    found = [f"{path.name}:{lineno}: {line.strip()}"
             for path in sorted(Path(tiara.__file__).parent.glob("*.py")) if path.name != "spectral.py"
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
             if "BLOCK_BYTES" in line]
    assert found == []


@pytest.mark.parametrize("phrase", ["out of range", "arrays=True"])
def test_one_module_bounds_indices(phrase):
    """Only tiara/errors.py says "out of range" or passes ``arrays=True``:
    every index, scalar or array, is range-checked by ``_index_rule``."""
    found = [f"{path.name}:{lineno}: {line.strip()}"
             for path in sorted(Path(tiara.__file__).parent.glob("*.py")) if path.name != "errors.py"
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
             if phrase in line]
    assert found == []


def test_verifier_reads_high_bands_through_one_reduction():
    """tiara/verifier.py names no transform: E and kappa of each signal pair
    come from ``consistency``'s one pair reduction, never from tables the
    verifier builds or reads itself."""
    pattern = re.compile(r"\b(high_band|dstft_magnitudes|dstft_bins)\b")
    path = Path(tiara.__file__).parent / "verifier.py"
    found = [f"{path.name}:{lineno}: {line.strip()}"
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
             if pattern.search(line)]
    assert found == []


def test_one_walk_transforms_attention_rows():
    """tiara/attention.py hands rows to the kernel from one function, the
    walker behind rho and the spectra, and derives the padded length Npad
    = N + 2*(L//2) in one place, ``_band``."""
    tree = ast.parse((Path(tiara.__file__).parent / "attention.py").read_text(encoding="utf-8"))
    callers, padders = set(), set()
    for function in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and node.id == "_windowed_sums":
                callers.add(function.name)
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                    and isinstance(node.right, ast.Attribute) and node.right.attr == "half"):
                padders.add(function.name)
    assert (callers, padders) == ({"_motion"}, {"_band"})


def test_one_function_calls_the_fft():
    """Only ``spectral._windowed_sums`` names ``np.fft``, and no module
    imports it: every windowed table comes from the core's per-row rfft,
    and ``dft`` stays a direct sum for its one coefficient."""
    def uses(tree):
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "fft"
                or isinstance(node, (ast.Import, ast.ImportFrom)) and "fft" in ast.unparse(node)]

    found, core = [], []
    for path in sorted(Path(tiara.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "spectral.py":
            core = [node for function in tree.body if getattr(function, "name", None) == "_windowed_sums"
                    for node in uses(function)]
        found += [f"{path.name}:{node.lineno}" for node in uses(tree) if node not in core]
    assert core and found == []


def test_parameter_rules_raise_for_themselves():
    """Every parameter rule raises ``ValidationError`` itself, so no function
    binds a message to raise (``violation := ...``) except the two callers of
    the verifier's feasibility predicate, which returns its message."""
    found = set()
    for path in sorted(Path(tiara.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            for node in ast.walk(function):
                bound = isinstance(node, ast.NamedExpr) and node.target.id == "violation"
                raised = (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                          and any(getattr(arg, "id", None) == "violation" for arg in node.exc.args))
                if bound or raised:
                    found.add((path.name, function.name))
    assert found == {("verifier.py", "alpha_from_closed_form"), ("verifier.py", "require_feasible")}


def test_config_error_raised_in_config_alone():
    """Only tiara/config.py turns a failure into ``ConfigError`` (a bad file
    line or a bad key); a rule, and a command flag, fail as ``ValidationError``."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(tiara.__file__).parent.glob("*.py")) if path.name != "config.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ConfigError"]
    assert found == []


@pytest.mark.parametrize("key, value, message", [
    ("alpha", -1.0, "alpha must be finite and >= 0, got -1.0"),
    ("corner_size", -1, "corner_size must be an integer >= 0, got -1"),
    ("corner_penalty", float("nan"), "corner_penalty must be finite and >= 0, got nan"),
    ("window_kind", "kaiser",
     "unknown window.kind 'kaiser'; expected one of ('rectangular', 'hann', 'gaussian', 'blackman')"),
    ("window_length", 0, "window.length must be an integer >= 1, got 0"),
    ("phi1", 1.5, "phi1 must be an integer >= 0, got 1.5 (dtype float64)"),
    ("phi2", 0, "phi2 must be an integer >= 1, got 0"),
    ("k_threshold", 0, "k_threshold must be an integer >= 1, got 0"),
    ("eta", 1.5, "eta must lie in (0, 1), got 1.5"),
    ("t1", 2.0, "t1 must be <= t2, got 2.0 > 1.0"),
    ("t2", float("inf"), "t2 must be finite, got inf"),
    ("layer_threshold", True, "layer_threshold must be an integer >= 0, got True (dtype bool)"),
    ("seed", -1, "seed must be an integer >= 0, got -1"),
])
def test_config_checks_itself(key, value, message):
    # validate_config had to be called by hand: Config(alpha=-1) was accepted
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Config(**{key: value})
