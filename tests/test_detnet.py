import ast
import itertools
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import guards
import relaycap
from relaycap import (
    DetNetwork,
    HalfDuplex,
    InvalidGainError,
    ShapeError,
    node_downlink_receive,
    relay_uplink_receive,
    shifted_contribution,
)


def frame(*bits: int) -> int:
    """Int frame from its levels, most significant first."""
    return int("".join(map(str, bits)) or "0", 2)


def levels(x: int, q: int) -> tuple[int, ...]:
    """Levels of a q-level int frame, most significant first."""
    return tuple((x >> (q - 1 - i)) & 1 for i in range(q))


# Two-pair reference network: uplink gains (3,2,2,1), downlink (2,3,1,2).
REF = DetNetwork((3, 2), (2, 1), (2, 1), (3, 2))


def matrix_oracle(net: DetNetwork, frames: dict) -> int:
    """Independent check of the relay receive: literal shift-matrix algebra."""
    q = net.q_up
    shift = np.eye(q, k=-1, dtype=np.int64)
    acc = np.zeros(q, dtype=np.int64)
    for (pair, side), x in frames.items():
        n = net.uplink_gain(pair, side)
        mat = np.linalg.matrix_power(shift, q - n)
        acc = (acc + mat @ np.array(levels(x, q))) % 2
    return frame(*(int(b) for b in acc))


def test_shift_identity_at_full_gain():
    assert shifted_contribution(0b110, 3, 3) == 0b110


def test_shift_by_one_keeps_only_msb():
    assert shifted_contribution(0b101, 1, 3) == 0b001
    assert shifted_contribution(0b011, 1, 3) == 0b000


def test_shift_gain_two_reference_node():
    # A2 of the reference network (gain 2) sending [0, a, 0] lands the bit on
    # the relay's bottom level.
    assert shifted_contribution(0b010, 2, 3) == 0b001


def test_gain_bounds():
    with pytest.raises(InvalidGainError):
        shifted_contribution(0b10, 3, 2)
    with pytest.raises(InvalidGainError):
        shifted_contribution(0b10, -1, 2)


def test_relay_receive_worked_example():
    # x_A1=[a11,a12,0], x_B1=[b11,0,0], x_A2=[0,a21,0], x_B2=[b21,0,0]
    # must give y_R = [a11, a12^b11, a21^b21] for every bit combination.
    for a11, a12, b11, a21, b21 in itertools.product((0, 1), repeat=5):
        frames = {
            (0, "A"): frame(a11, a12, 0),
            (0, "B"): frame(b11, 0, 0),
            (1, "A"): frame(0, a21, 0),
            (1, "B"): frame(b21, 0, 0),
        }
        got = relay_uplink_receive(REF, frames)
        assert got == frame(a11, a12 ^ b11, a21 ^ b21)
        assert got == matrix_oracle(REF, frames)


def test_relay_receive_all_zero():
    frames = {node: 0 for node in REF.nodes()}
    assert relay_uplink_receive(REF, frames) == 0


def test_relay_receive_single_transmitter():
    x = 0b101
    got = relay_uplink_receive(REF, {(0, "A"): x})
    assert got == shifted_contribution(x, 3, 3) == x


@pytest.mark.parametrize(
    "gains,message",
    [(((1, 2), (1,), (1,), (1,)), "gain arrays must all have one entry per pair")],
    ids=repr,
)
def test_network_refuses_malformed_gains(gains, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DetNetwork(*gains)


def test_relay_receive_shape_error():
    # REF frames have q = 3 levels: ints outside [0, 8) are rejected.
    for bad in (1 << 3, (1 << 3) + 1, -1):
        with pytest.raises(ShapeError):
            relay_uplink_receive(REF, {(0, "A"): bad})
        with pytest.raises(ShapeError):
            node_downlink_receive(REF, bad, 0, "A")
        with pytest.raises(ShapeError):
            shifted_contribution(bad, 2, 3)


def test_downlink_receive_worked_example():
    # Relay transmits [a21^b21, a12^b11, a11]; A1 (gain 2) must observe the
    # pair-1 combination among its received levels.
    x_r = frame(1, 1, 0)  # a21^b21=1, a12^b11=1, a11=0
    at_a1 = node_downlink_receive(REF, x_r, 0, "A")
    assert at_a1 == frame(0, 1, 1)  # top two relay levels, shifted down
    at_b1 = node_downlink_receive(REF, x_r, 0, "B")
    assert at_b1 == frame(1, 1, 0)  # gain 3 hears the full frame


def test_downlink_zero_gain_silent():
    net = DetNetwork((1,), (1,), (0,), (1,))
    assert node_downlink_receive(net, 0b1, 0, "A") == 0


def test_downlink_unknown_node():
    for pair in (5, True, 1.0):
        with pytest.raises(LookupError):
            node_downlink_receive(REF, 0, pair, "A")


@pytest.mark.parametrize("pair", [True, False, 1.0, 0.0, Fraction(1), "1"], ids=repr)
def test_node_index_refuses_bools_and_non_integers(pair):
    # A bool or a whole float used to act on pair 1 (or 0), or fail on a tuple index.
    for call in (
        lambda: REF.uplink_gain(pair, "A"),
        lambda: REF.downlink_gain(pair, "B"),
        lambda: relay_uplink_receive(REF, {(pair, "A"): 1}),
    ):
        with pytest.raises(LookupError, match=re.escape(f"no node ({pair}, ")):
            call()


def test_node_index_accepts_numpy_integers():
    assert REF.uplink_gain(np.int64(1), "A") == REF.uplink_gain(1, "A")
    assert node_downlink_receive(REF, 0b110, np.int32(0), "B") == node_downlink_receive(REF, 0b110, 0, "B")


@pytest.mark.parametrize("bad", [True, False, 1.0, np.float64(1.0), Fraction(1), "1"], ids=repr)
def test_channel_primitives_refuse_non_integers(bad):
    # A bool frame or gain used to pass as the integer 1 or 0, and a float
    # frame failed on the shift with a bare TypeError.
    for call in (
        lambda: relay_uplink_receive(REF, {(0, "A"): bad}),
        lambda: node_downlink_receive(REF, bad, 0, "A"),
        lambda: shifted_contribution(bad, 1, 1),
    ):
        with pytest.raises(ShapeError, match=re.escape(f"frame {bad!r} is not an integer")):
            call()
    for gain, q in ((bad, 2), (1, bad)):
        with pytest.raises(InvalidGainError, match="must be integers"):
            shifted_contribution(1, gain, q)


def test_channel_primitives_take_numpy_integers_as_int():
    got = shifted_contribution(np.int64(0b110), np.int32(2), np.int64(3))
    assert (type(got), got) == (int, 0b011)


# The names that decide whether a value is an integer: only
# `detnet._integer` may use them.
_INTEGER_RULE = {"numbers.Integral", "operator.index"}


def _integer_rule_uses(source: str, module: str) -> list[tuple[str, str | None, str]]:
    """(module, enclosing def or class, name) of each use of a name in
    `_INTEGER_RULE`, as an attribute or a from-import."""
    found = []
    for node, scopes, _ in guards.walk(source):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = []
        found.extend((module, guards.innermost(scopes), name) for name in names if name in _INTEGER_RULE)
    return found


def test_one_integer_rule():
    # Every boundary that takes an integer asks `detnet._integer`; no other
    # code spells the rule again.
    package = Path(relaycap.__file__).parent
    uses = [use for path in sorted(package.glob("*.py")) for use in _integer_rule_uses(path.read_text(), path.stem)]
    assert uses == [("detnet", "_integer", "numbers.Integral")]
    for planted, use in (
        ("def f(v):\n    return isinstance(v, numbers.Integral)", ("m", "f", "numbers.Integral")),
        ("from numbers import Integral", ("m", None, "numbers.Integral")),
        ("class C:\n    x = operator.index(1)", ("m", "C", "operator.index")),
    ):
        assert _integer_rule_uses(planted, "m") == [use], planted


def _sorts(source: str, module: str) -> list[tuple[str, str | None, str]]:
    """(module, enclosing def or class, name) of each call that sorts --
    `sorted`, a `.sort` method, or `gain_order`."""
    return [
        (module, guards.innermost(scopes), guards.called(node))
        for node, scopes, _ in guards.walk(source)
        if guards.called(node) in ("sorted", "sort", "gain_order")
    ]


def test_one_hop_order():
    # Each hop's sessions are put in gain order in one place, `gain_order`,
    # which only `DetNetwork.hop_orders` calls: it keeps its two orders for
    # the network's lifetime.  The other sorts order CLI field names, cut
    # members, `_runs` runs and the rows of a validated schedule.
    package = Path(relaycap.__file__).parent
    sorts = [use for path in sorted(package.glob("*.py")) for use in _sorts(path.read_text(), path.stem)]
    assert sorts == [
        ("cli", "load_network", "sorted"),
        ("cutset", "__post_init__", "sorted"),
        ("detnet", "hop_orders", "gain_order"), ("detnet", "hop_orders", "gain_order"),
        ("detnet", "gain_order", "sorted"),
        ("scheduler", "_pack", "sorted"), ("scheduler", "validate_schedule", "sort"),
    ]
    for planted, use in (
        ("def walk(up):\n    return sorted(range(len(up)), key=lambda k: up[k])", ("m", "walk", "sorted")),
        ("class C:\n    def f(self, order):\n        order.sort(key=self.up.__getitem__)", ("m", "f", "sort")),
    ):
        assert _sorts(planted, "m") == [use], planted


def _hop_pass_uses(source: str, module: str) -> list[tuple[str, str | None]]:
    """(module, enclosing def or class) of each read of `_hop_holds`, by
    name or as an attribute; its definition and imports are no reads."""
    return [
        (module, guards.innermost(scopes))
        for node, scopes, _ in guards.walk(source)
        if getattr(node, "id", None) == "_hop_holds" or getattr(node, "attr", None) == "_hop_holds"
    ]


def test_one_verdict_pass():
    # `_hop_holds` is the one membership pass: the oracle, the region walk
    # and the induction's re-check each run it once per hop, and nothing
    # else reads it.
    package = Path(relaycap.__file__).parent
    uses = [use for path in sorted(package.glob("*.py")) for use in _hop_pass_uses(path.read_text(), path.stem)]
    assert uses == [
        ("cutset", "in_det_cutset"), ("cutset", "in_det_cutset"),
        ("cutset", "enumerate_integral_region"), ("cutset", "enumerate_integral_region"),
        ("scheduler", "_run_induction"), ("scheduler", "_run_induction"),
    ]
    for planted, use in (
        ("def cutset_holds(up, rates):\n    return _hop_holds(gain_order(up), up, rates, 1)", ("m", "cutset_holds")),
        ("from . import cutset\ncheck = cutset._hop_holds", ("m", None)),
    ):
        assert _hop_pass_uses(planted, "m") == [use], planted


_DICT_WRITES = ("clear", "pop", "popitem", "setdefault", "update")
_ATTR_WRITES = ("setattr", "__setattr__", "delattr", "__delattr__")


def _is_bit_table(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_bit_table"


def _bit_table_writes(source: str, module: str) -> list[tuple[str, str | None, str]]:
    """(module, enclosing class, "def" or "store") of each definition of
    `_bit_table` and each store into one: an assignment or `del` of it or
    of one of its keys, a dict method that changes it, or a `setattr` that
    names it."""
    found = []
    for node, scopes, _ in guards.walk(source):
        owner = next((name for kind, name in reversed(scopes) if kind == "class"), None)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_bit_table":
            found.append((module, owner, "def"))
        stored = False
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            stored = _is_bit_table(node)
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            stored = _is_bit_table(node.value)
        elif isinstance(node, ast.Call):
            name = guards.called(node)
            named = any(isinstance(arg, ast.Constant) and arg.value == "_bit_table" for arg in node.args)
            stored = (name in _DICT_WRITES and _is_bit_table(node.func.value)) or (name in _ATTR_WRITES and named)
        if stored:
            found.append((module, owner, "store"))
    return found


def test_the_network_owns_its_bit_table():
    # Each bit's served sessions and reach are facts about the network's
    # gains: `DetNetwork._bit_table` builds them all, and no other code
    # defines the table or stores into it.
    package = Path(relaycap.__file__).parent
    writes = [use for path in sorted(package.glob("*.py")) for use in _bit_table_writes(path.read_text(), path.stem)]
    assert writes == [("detnet", "DetNetwork", "def")]
    for planted, use in (
        ("def _bit(net, key):\n    entry = net._bit_table[key] = (key,)", ("m", None, "store")),
        ("class C:\n    def f(self, net):\n        net._bit_table.setdefault(0, ())", ("m", "C", "store")),
        ("object.__setattr__(net, '_bit_table', {})", ("m", None, "store")),
        ("class Net:\n    @property\n    def _bit_table(self):\n        return {}", ("m", "Net", "def")),
    ):
        assert _bit_table_writes(planted, "m") == [use], planted


def _numpy_imports(source: str) -> list[str]:
    """Each module name from the numpy package that an import names."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] == "numpy"]


def test_exact_side_imports_no_numpy():
    # The deterministic side computes in Python ints and Fractions, which
    # grow where numpy's fixed-width integers would wrap or refuse.
    package = Path(relaycap.__file__).parent
    for module in ("cutset", "scheduler", "detnet"):
        assert _numpy_imports((package / f"{module}.py").read_text()) == [], module
    for planted in ("import numpy as np", "def f():\n    from numpy.linalg import norm"):
        assert _numpy_imports(planted), planted


def _defined_names(stmt) -> set[str]:
    """The module-level names one top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """"module.name" of each module-level underscore name of ``sources``
    (module name -> source of one package module) that no statement but its
    own definition reads: by name in its module, by a relative from-import,
    or as an attribute of a module of the package imported by name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        siblings = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        for stmt in tree.body:
            own = _defined_names(stmt)
            defined += [(module, name) for name in sorted(own) if name.startswith("_") and not name.endswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
                    read.add((module, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    read.update((node.module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in siblings:
                    read.add((siblings[node.value.id], node.attr))
    return [f"{module}.{name}" for module, name in defined if (module, name) not in read]


def test_every_private_module_name_is_read():
    # A table or helper the package no longer reads is a leftover of a
    # refactor, kept alive only by its own definition or by tests.
    package = Path(relaycap.__file__).parent
    assert _unread_private_names({path.stem: path.read_text() for path in sorted(package.glob("*.py"))}) == []
    for planted, unread in (
        ({"m": "_A, _B = 1, 2\nx = _A"}, ["m._B"]),
        ({"m": "def _f(n):\n    return _f(n - 1)"}, ["m._f"]),  # a self-call is no reader
        ({"m": "class _C:\n    pass", "n": "from .m import _C"}, []),
        ({"m": "_T: int = 1", "n": "from . import m\nx = m._T"}, []),
        ({"m": "_T = 1", "n": "import m\nx = m._T"}, ["m._T"]),  # not a package import
    ):
        assert _unread_private_names(planted) == unread, planted


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; the suite runs on a
    # newer Python, so syntax added since 3.10 would pass it unseen.
    package = Path(relaycap.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# A process with no cached bytecode compiles each module at import, and the
# compile holds about 2.2-3.1 KiB of heap per source line at its peak; with
# numpy imported first that heap stays resident, so the largest module sets
# the benchmark's peak RSS.
MAX_MODULE_LINES = 600


def _long_modules(sources: dict) -> list[str]:
    return [name for name, source in sources.items() if len(source.splitlines()) > MAX_MODULE_LINES]


def test_modules_are_short_and_import_in_layers():
    package = Path(relaycap.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _long_modules(sources) == []
    graph = guards.package_imports(sources)
    assert guards.import_cycle(graph) is None
    # The Gaussian layers import downward only: `gaussian` sits on `hops`,
    # which sits on `chains`, which sits on `gaussnet`, and `streams` stands alone.
    assert graph["gaussnet"] == set() and graph["chains"] == {"gaussnet"} and graph["streams"] == set()
    assert graph["hops"] == {"chains", "gaussnet"} and {"gaussnet", "hops", "streams"} <= graph["gaussian"]

    assert _long_modules({"big": "x = 1\n" * 601, "fits": "x = 1\n" * 600}) == ["big"]
    planted = {
        "__init__": "from .a import f",
        "a": "from relaycap import b",
        "b": "def g():\n    import relaycap.c",
        "c": "from relaycap.d import h",
        "d": "import numpy\nfrom . import VERSION",
    }
    graph = guards.package_imports(planted)
    assert graph == {"__init__": {"a"}, "a": {"b"}, "b": {"c"}, "c": {"d"}, "d": {"__init__"}}
    cycle = guards.import_cycle(graph)
    assert cycle is not None and len(cycle) == 6 and cycle[0] == cycle[-1] and set(cycle) == set(planted)
    planted["d"] = "import numpy"
    assert guards.import_cycle(guards.package_imports(planted)) is None


def test_every_public_function_has_a_reader():
    # A public function stays only while a command or workload calls it:
    # some module of the package reads it, or a perfbench workload or its
    # tracer names it (the tracer's `WRAPPED` names are strings).
    package = [path.read_text() for path in Path(relaycap.__file__).parent.glob("*.py")]
    bench = [path.read_text() for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")]
    functions = [
        name for name in relaycap.__all__ if callable(value := getattr(relaycap, name)) and not isinstance(value, type)
    ]
    assert "enumerate_cuts" in functions  # an lru_cache wrapper is no class
    assert guards.unread(functions, package, bench) == []

    planted = [
        "from .gaussnet import classify_case, uplink_allocate\n__all__ = ['classify_case']",
        "def f(x):\n    return f(x - 1) + g.uplink_allocate(x)",
        "def h():\n    pass",
    ]
    names = ["classify_case", "uplink_allocate", "f", "h", "run_trial", "monte_carlo_gap", "sweep"]
    assert guards.unread(names, planted, []) == ["classify_case", "f", "h", "run_trial", "monte_carlo_gap", "sweep"]
    bench = ["WRAPPED = ((gaussian, 'monte_carlo_gap', 'cli.sweep'),)\nrun_trial = None\nx = f"]
    assert guards.unread(names, planted, bench) == ["classify_case", "h", "run_trial", "sweep"]


def test_public_api_is_pinned():
    # What `relaycap` exports, stated once: a removal or a new re-export
    # shows up here as a diff.  The submodules are not exported.
    star = {}
    exec("from relaycap import *", star)
    assert not [name for name, value in star.items() if not name.startswith("_") and type(value) is type(relaycap)]
    assert sorted(relaycap.__all__) == """
        AchievabilityReport AllocationInvalidError Cut CutViolation DetNetwork DownlinkAllocation DuplexMode
        FULL_DUPLEX FullDuplex GaussNetwork HalfDuplex InductionInvariantError InfeasibleRatesError
        InvalidGainError LevelAssignment LowPowerError Membership NormalizedProblem NotInRegionError RegionSizeError
        Schedule ScheduleInvalidError ShapeError SimulationResult SweepColumns SweepConfig UplinkAllocation
        chunk_schedule divide_and_conquer downlink_allocate downlink_rate_check
        enumerate_cuts enumerate_integral_region gauss_cutset gauss_restricted_cutset in_det_cutset
        monte_carlo_gap node_downlink_receive random_messages reduce_orderings relay_uplink_receive
        restricted_bound_gaps schedule_fractional schedule_half_duplex shifted_contribution
        simulate_schedule uplink_allocate uplink_rate_check validate_schedule verify_constant_gap
    """.split()


def test_gain_validation():
    with pytest.raises(InvalidGainError):
        DetNetwork((-1,), (0,), (0,), (0,))
    with pytest.raises(ValueError):
        DetNetwork((), (), (), ())
    with pytest.raises(InvalidGainError, match="n_ar"):
        DetNetwork(3, (1,), (1,), (1,))
    with pytest.raises(InvalidGainError, match="n_rb"):
        DetNetwork((1,), (1,), (1,), 2.0)


@pytest.mark.parametrize("delta", [0.1, 0.5, np.float64(0.25), np.float32(0.75)])
def test_half_duplex_refuses_inexact_listen_fractions(delta):
    # Fraction(0.1) is 3602879701896397/36028797018963968: once taken as is,
    # it made schedules over Q = 180143985094819840 uses.
    with pytest.raises(ValueError, match=re.escape(f"{delta!r} is a float that is not a whole number; pass a Fraction")):
        HalfDuplex(delta)


@pytest.mark.parametrize("delta", ["1/3", "0.5", b"1/3", None], ids=repr)
def test_half_duplex_refuses_a_listen_fraction_that_is_not_a_number(delta):
    # Fraction() parses "1/3": HalfDuplex("1/3") was once taken as 1/3.
    with pytest.raises(ValueError, match=f"^listen fraction must be a number, got {re.escape(repr(delta))}$"):
        HalfDuplex(delta)


def test_half_duplex_takes_exact_listen_fractions():
    assert HalfDuplex(Fraction(1, 10)).delta == Fraction(1, 10)
    for whole in (1.0, 0, 1):
        with pytest.raises(ValueError, match="strictly in"):
            HalfDuplex(whole)


frames3 = st.integers(0, 0b111)


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 1), st.sampled_from(["A", "B"])), frames3, max_size=4
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 1), st.sampled_from(["A", "B"])), frames3, max_size=4
    ),
)
def test_receive_is_linear_over_xor(raw1, raw2):
    nodes = set(raw1) | set(raw2)
    f1 = {n: raw1.get(n, 0) for n in nodes}
    f2 = {n: raw2.get(n, 0) for n in nodes}
    combined = {n: f1[n] ^ f2[n] for n in nodes}
    lhs = relay_uplink_receive(REF, combined)
    rhs = relay_uplink_receive(REF, f1) ^ relay_uplink_receive(REF, f2)
    assert lhs == rhs
    assert lhs == matrix_oracle(REF, combined)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=8), st.data())
def test_shift_zero_fills_and_preserves(bits, data):
    q = len(bits)
    n = data.draw(st.integers(0, q))
    out = levels(shifted_contribution(frame(*bits), n, q), q)
    assert out[: q - n] == (0,) * (q - n)
    assert out[q - n :] == tuple(bits[:n])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=8), st.data())
def test_shift_composition(bits, data):
    q = len(bits)
    n = data.draw(st.integers(0, q))
    m = data.draw(st.integers(0, n))
    x = frame(*bits)
    via_n = levels(shifted_contribution(x, n, q), q)[q - n : q - n + m]
    direct = levels(shifted_contribution(x, m, q), q)[q - m :]
    assert via_n == direct == tuple(bits[:m])
