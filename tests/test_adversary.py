import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import omcp
from omcp.adversary import (
    AdversaryState,
    SSState,
    random_uniform_base,
    run_game,
    ss_forcing_run,
)
from omcp.cube import (
    Orientation,
    holt_klee_value,
    is_uso_exhaustive,
    outmap_name,
    sink_vertex,
    vertex_bit,
)
from omcp.guards import SizeGuardError
from omcp.om import ExplicitOM
from omcp.plcp import random_p_matrix
from omcp.pmatroid import is_degenerate, is_p_matroid
from omcp.realize import RationalMatrix, RealizedOM, hstack, negated
from omcp.reduction import klaus_orientation, orient_vertex_partial, orient_vertex_total
from omcp.signs import GroundSet


def test_random_base_is_uniform_p_matroid():
    rng = random.Random(2)
    for n in (1, 2, 3):
        base = random_uniform_base(n, rng)
        assert base.is_uniform()
        assert is_p_matroid(base.to_explicit()).is_p


def test_first_query_shrinks_hypersink():
    rng = random.Random(4)
    base = random_uniform_base(2, rng)
    state = AdversaryState(base)
    answer = state.answer(0)
    assert "0" not in outmap_name(answer, 2)
    assert state.hypersink.dim == 1
    assert dict(state.hypersink.fixed) == {0: 1}


def test_repeat_queries_are_deterministic():
    rng = random.Random(5)
    base = random_uniform_base(2, rng)
    state = AdversaryState(base)
    first = state.answer(0)
    outside_again = orient_vertex_total(state.oracle, 0, 2)
    assert outside_again == first
    assert state.answer(0) == first


def test_state_keeps_one_oracle_per_localization():
    base = random_uniform_base(3, random.Random(7))
    state = AdversaryState(base)
    oracle = state.oracle
    assert oracle.sigma is state.sigma
    state.answer(0)  # inside U: composes an atom
    assert state.oracle is not oracle and state.oracle.sigma is state.sigma
    oracle = state.oracle
    outside = next(v for v in range(8) if not state.hypersink.contains(v))
    state.answer(outside)  # outside U: no atom, the same oracle answers
    assert state.oracle is oracle
    state.answer(outside)
    assert state.oracle is oracle
    inside = next(iter(state.hypersink.vertices()))
    state.answer(inside)
    assert state.oracle is not oracle and state.oracle.sigma is state.sigma
    assert len(state.sigma.atoms) == 2


def test_in_u_queries_are_never_sinks():
    rng = random.Random(6)
    for n in (2, 3):
        base = random_uniform_base(n, rng)
        state = AdversaryState(base)
        for _ in range(n):  # query inside each successive hypersink
            v = next(iter(state.hypersink.vertices()))
            answer = state.answer(v)
            assert outmap_name(answer, n) != "-" * n


def test_hypersink_invariant():
    rng = random.Random(8)
    for n in (2, 3, 4):
        base = random_uniform_base(n, rng)
        state = AdversaryState(base)
        for v in (0, (1 << n) - 1, 1):
            state.answer(v)
            u = state.hypersink
            if u.dim == 0:
                continue
            for w in u.vertices():
                partial = outmap_name(orient_vertex_partial(state.oracle, w, n), n)
                for j in range(n):
                    if j not in u.spanned:
                        assert partial[j] == "-"


def test_finalize_no_queries():
    rng = random.Random(10)
    base = random_uniform_base(1, rng)
    state = AdversaryState(base)
    oracle = state.finalize()
    o = klaus_orientation(oracle, 1).materialize()
    assert is_uso_exhaustive(o)
    assert sink_vertex(o) == 1  # upper facet retained


def test_finalize_preserves_transcript():
    rng = random.Random(12)
    base = random_uniform_base(2, rng)
    state = AdversaryState(base)
    recorded = state.answer(0)
    oracle = state.finalize()
    assert orient_vertex_total(oracle, 0, 2) == recorded


def test_finalized_instance_properties():
    rng = random.Random(14)
    for n in (2, 3):
        base = random_uniform_base(n, rng)
        state = AdversaryState(base)
        result = run_game("ordered-scan", state)
        o = klaus_orientation(result.oracle, n).materialize()
        assert is_uso_exhaustive(o)
        assert sink_vertex(o) == result.sink
        assert not is_degenerate(result.oracle, n)[0]
        for v, answer in result.transcript:
            assert orient_vertex_total(result.oracle, v, n) == answer


def test_lower_bound_small_dimensions():
    rng = random.Random(16)
    for n in (1, 2, 3, 4):
        for algo in ("ordered-scan", "jump"):
            base = random_uniform_base(n, rng)
            result = run_game(algo, AdversaryState(base))
            assert result.query_count >= n


def test_sink_lies_in_final_hypersink():
    rng = random.Random(18)
    base = random_uniform_base(3, rng)
    state = AdversaryState(base)
    for v in (0, 1, 2):
        state.answer(v)
    u = state.hypersink
    result_oracle = state.finalize()
    o = klaus_orientation(result_oracle, 3).materialize()
    assert u.contains(sink_vertex(o))


def test_adversary_rejects_non_uniform_base():
    g = GroundSet.complementary(1, with_q=False)
    om = ExplicitOM.from_encoded(g, ["+0", "-0"])  # s1 is a loop
    with pytest.raises(ValueError):
        AdversaryState(om)


def test_game_dimension_guard():
    # 7 pairs against the default guard of 6; the guard fires before the
    # uniformity check, which reads C(14, 7) - 1 minors.
    m = random_p_matrix(7, random.Random(20))
    base = RealizedOM(hstack(RationalMatrix.identity(7), negated(m)), GroundSet.complementary(7))
    with pytest.raises(SizeGuardError):
        AdversaryState(base)
    assert "_uniform" not in vars(base)


# -- collision-forcing first phase ------------------------------------------


def test_ss_answers_outgoing_off_pool():
    state = SSState(8)
    out = state.answer(0)
    assert outmap_name(out, 8) == "+" * 8


def test_ss_collision_grows_dimension_set():
    state = SSState(8)
    state.answer(0)
    v2 = sum(1 << (8 - 1 - d) for d in (0, 1, 2))
    a2 = state.answer(v2)
    assert state.dims == [0]
    assert outmap_name(a2, 8) == "-" + "+" * 7


def test_ss_no_collision_keeps_dimension_set():
    state = SSState(8)
    state.answer(0)
    state.answer(sum(1 << (8 - 1 - d) for d in (0, 1, 2)))
    state.answer(sum(1 << (8 - 1 - d) for d in (1, 2)))
    dims_before = list(state.dims)
    state.answer(1 << (8 - 1))  # vertex 100... projects to a fresh slot
    assert state.dims == dims_before


def test_ss_budget():
    state = SSState(8)
    assert state.budget == 5
    for v in range(5):
        state.answer(v)
    with pytest.raises(RuntimeError):
        state.answer(17)


def test_ss_forcing_run_properties():
    forced = ss_forcing_run(8)
    assert forced.n == 3
    assert is_uso_exhaustive(forced)
    assert holt_klee_value(forced) == 2
    assert forced.to_outmaps() == [
        "+++", "++-", "+--", "+-+", "--+", "---", "-+-", "-++",
    ]


def test_ss_forcing_run_invariant_across_sizes():
    reference = ss_forcing_run(8).to_outmaps()
    for n in (9, 10):
        assert ss_forcing_run(n).to_outmaps() == reference


def test_ss_forcing_rejects_small_n():
    with pytest.raises(ValueError):
        ss_forcing_run(7)


def test_ss_forcing_run_checks_survive_optimize_flag():
    # The schedule's checks must not be asserts, which ``python -O`` strips.
    src = str(Path(omcp.__file__).resolve().parents[1])
    code = (
        "from omcp.adversary import ss_forcing_run\n"
        "print(__debug__, ss_forcing_run(8).to_outmaps())\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.split(" ", 1) == [
        "False", "['+++', '++-', '+--', '+-+', '--+', '---', '-+-', '-++']\n",
    ]
