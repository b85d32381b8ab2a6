"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import json
import random
import time
from fractions import Fraction

from dpcolor import (
    BudgetExceeded,
    apply_rules,
    chi,
    chi_dp,
    chi_list,
    complete_graph,
    cycle_graph,
    encode_graph6,
    face_charge_capacity,
    initial_charges,
    is_dp_k_colorable,
    is_k_choosable,
    from_edge_list,
)
from dpcolor.cli import main as cli_main
from fixtures import random_plane_embedding
from oracles import slow_dp_verdict
from smallgraphs import connected_graphs

VARIANT_NAMES = ("a", "b67", "b68")


def _report(name: str, started: float, limit: float, detail: str = "") -> None:
    elapsed = time.time() - started
    print(f"[PASS] {name}: {detail + ' ' if detail else ''}"
          f"({elapsed:.1f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"{name} exceeded its time limit"


def _embedding_corpus(count: int = 220, seed: int = 2024):
    rng = random.Random(seed)
    return [random_plane_embedding(rng, rng.randint(2, 12)) for _ in range(count)]


def test_charge_identity_on_random_embeddings():
    started = time.time()
    corpus = _embedding_corpus()
    assert len(corpus) >= 200
    for emb in corpus:
        g = emb.graph
        total = sum(g.degree(v) - 4 for v in range(g.n))
        total += sum(len(walk) - 4 for walk in emb.faces)
        assert total == -8
        assert initial_charges(emb).total() == Fraction(-8)
    _report("charge identity", started, 5.0, f"{len(corpus)} embeddings")


def test_conservation_every_phase_both_schedules():
    started = time.time()
    corpus = _embedding_corpus()
    phases = 0
    for emb in corpus:
        for variant in VARIANT_NAMES:
            state = apply_rules(emb, variant)
            for _, total in state.phase_totals:
                assert total == Fraction(-8)
                phases += 1
    _report("conservation", started, 120.0, f"{phases} phase checks")


def test_capacity_identity_random_t_vectors():
    started = time.time()
    rng = random.Random(5)
    for trial in range(10_000):
        d = rng.randint(10, 20)
        t: dict[int, int] = {}
        left = d
        while left:
            part = rng.randint(1, left)
            t[part] = t.get(part, 0) + 1
            left -= part
        x = 0 if d >= 12 else (1 if d == 11 else 2)
        assert face_charge_capacity(t, d) == Fraction(2, 3) * d - Fraction(x, 3)
    _report("big-face capacity identity", started, 60.0, "10000 t-vectors")


def test_even_cycle_facts():
    started = time.time()
    for m in (4, 6, 8):
        c = cycle_graph(m)
        assert is_k_choosable(c, 1) is not True
        assert is_k_choosable(c, 2) is True
        assert chi_list(c) == 2
        assert is_dp_k_colorable(c, 2) is not True
        assert is_dp_k_colorable(c, 3) is True
        assert chi_dp(c) == 3
    _report("even cycles: 2-choosable, not DP-2", started, 60.0)


def test_chain_inequality_all_connected_up_to_5():
    started = time.time()
    graphs = connected_graphs(5)
    exact = 0
    bounded = 0
    for g in graphs:
        x = chi(g)
        xl = chi_list(g)
        assert x <= xl, g.edges
        try:
            xdp = chi_dp(g, budget=100_000)
            assert xl <= xdp, g.edges
            exact += 1
        except BudgetExceeded:
            # the adversary search still certifies chi_DP > chi_list - 1
            cert = is_dp_k_colorable(g, xl - 1, budget=10_000_000)
            assert cert is not True, g.edges
            bounded += 1
    _report("chain chi <= chi_list <= chi_DP", started, 600.0,
            f"{exact} exact, {bounded} via certificates, {len(graphs)} graphs")


def test_normalization_soundness_k2():
    started = time.time()
    graphs = connected_graphs(5)
    for g in graphs:
        fast = is_dp_k_colorable(g, 2) is True
        slow = slow_dp_verdict(g, 2)
        assert fast == slow, g.edges
    _report("normalized adversary = unrestricted oracle", started, 600.0,
            f"{len(graphs)} graphs at k=2")


def test_desk_scale_scan_all_planar_up_to_7(tmp_path):
    started = time.time()
    stream = "\n".join(encode_graph6(g) for g in connected_graphs(7)) + "\n"
    path = tmp_path / "census.g6"
    path.write_text(stream)
    totals = {}
    for variant in VARIANT_NAMES:
        sidecar = tmp_path / f"verify-{variant}.json"
        code = cli_main(["verify-theorem2", str(path), "--variant", variant,
                         "--json", str(sidecar)])
        doc = json.loads(sidecar.read_text())
        assert doc["fail"] == 0
        assert doc["budget"] == 0
        assert code == 0
        passed = sum(1 for row in doc["rows"] if row["status"] == "pass")
        assert passed == doc["checked"] and passed > 0
        totals[variant] = passed
    _report("DP-3 scan over planar census <= 7", started, 1800.0,
            f"checked per variant: {totals}")


def test_known_dp_values():
    started = time.time()
    assert chi_dp(from_edge_list([], n=1)) == 1
    for n in range(2, 5):
        assert chi_dp(complete_graph(n)) == n
    for m in range(3, 9):
        assert chi_dp(cycle_graph(m)) == 3
    _report("known DP-chromatic values", started, 120.0,
            "K1..K4 and C3..C8")
