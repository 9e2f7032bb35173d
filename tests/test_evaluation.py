import functools
import hashlib
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eventke import evaluation
from eventke.autodiff import Tape, Tensor
from eventke.evaluation import (
    EVAL_BLOCK,
    EvalProtocol,
    HeadConfig,
    HeadResult,
    RankingReport,
    aggregate_report,
    frozen_entity_matrix,
    kg_completion_eval,
    rank_diff,
    rank_of_gold,
    relation_examples,
    train_head_on_model,
    train_head_on_vectors,
)
from eventke.kgdata import KnowledgeTriple
from eventke.layers import ModelConfig, forward_model
from eventke.scoring import (
    ConvScorerConfig,
    SplitTrunk,
    conv_trunk,
    frozen_trunk,
    known_tails_from_triples,
    score_against_all,
)
from eventke.trainer import build_model

from _child import digest_in_child
from _synth import build_from_lines, dataset_lines, memorization_lines


MODEL = ModelConfig(dim=4, num_layers=1, seed=1)
SCORER = ConvScorerConfig(rows=2, cols=2, filters=2, kernel=2)


def eval_setup(seed=5):
    lines = dataset_lines(
        n_entities=12, n_relations=3, n_triples=20, n_events=3,
        min_args=2, max_args=3, n_temporal=2, seed=seed,
    )
    graph = build_from_lines(*lines)
    used, store = build_model(graph, MODEL, SCORER)
    return used, store


# -- rank definition --------------------------------------------------------


def test_rank_strictly_highest_is_one():
    assert rank_of_gold(np.array([0.2, 3.0, -1.0]), 1) == 1.0


def test_rank_all_tied_mid_rank():
    assert rank_of_gold(np.array([1.0, 1.0, 1.0]), 0) == 2.0


def test_rank_strictly_lowest_of_five():
    assert rank_of_gold(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), 4) == 5.0


def test_rank_gold_out_of_range():
    with pytest.raises(IndexError):
        rank_of_gold(np.array([1.0, 2.0]), 2)
    with pytest.raises(IndexError):
        rank_of_gold(np.array([1.0, 2.0]), -1)
    for golds in ([0, 3], [-1, 0]):
        with pytest.raises(IndexError):
            rank_of_gold(np.zeros((2, 3)), np.array(golds))
    with pytest.raises(ValueError):
        rank_of_gold(np.zeros((2, 3)), 0)


def test_rank_invariant_under_monotone_transform():
    rng = np.random.default_rng(0)
    for _ in range(50):
        # integer grid forces ties
        scores = rng.integers(-3, 4, size=9).astype(np.float64)
        gold = int(rng.integers(0, 9))
        base = rank_of_gold(scores, gold)
        assert rank_of_gold(3.0 * scores + 7.0, gold) == base
        assert rank_of_gold(np.exp(scores), gold) == base


def test_block_rank_equals_row_by_row_calls():
    rng = np.random.default_rng(11)
    # integer grid for ties; row 0 all equal; golds in the first and last column
    scores = rng.integers(-2, 3, size=(6, 9)).astype(np.float64)
    scores[0] = 1.0
    golds = np.array([0, 8, 0, 8, 3, 5])
    mask = rng.random(scores.shape) < 0.3
    mask[np.arange(6), golds] = False
    mask[5] = False  # one row with nothing masked
    masked = np.where(mask, np.nan, scores)
    ranks = rank_of_gold(masked, golds)
    assert ranks.dtype == np.float64 and ranks.shape == (6,)
    for i, gold in enumerate(golds):
        keep = np.flatnonzero(~mask[i])
        deleted = rank_of_gold(scores[i, keep], int(np.searchsorted(keep, gold)))
        assert ranks[i] == rank_of_gold(masked[i], int(gold)) == deleted
        assert deleted == _sort_rank(scores[i, keep], int(np.searchsorted(keep, gold)))
    assert ranks[0] == (9 - mask[0].sum() + 1) / 2


# -- metric aggregation vs sort-based oracle --------------------------------


def _brute_rank(row, gold):
    ordered = sorted(row, reverse=True)
    s = row[gold]
    first = ordered.index(s)
    last = len(ordered) - 1 - ordered[::-1].index(s)
    return 1.0 + (first + last) / 2.0


def _brute_metrics(rows, golds):
    ranks = [_brute_rank(list(row), gold) for row, gold in zip(rows, golds)]
    n = len(ranks)
    return (
        sum(ranks) / n,
        sum(1.0 / r for r in ranks) / n,
        sum(1 for r in ranks if r <= 10) / n,
        sum(1 for r in ranks if r <= 20) / n,
        ranks,
    )


def test_metrics_match_brute_force_oracle_exactly():
    rng = np.random.default_rng(42)
    for trial in range(200):
        n_queries = int(rng.integers(1, 8))
        n_candidates = int(rng.integers(2, 40))
        # half the trials use an integer grid so ties actually occur
        if trial % 2:
            rows = rng.integers(-2, 3, size=(n_queries, n_candidates)).astype(np.float64)
        else:
            rows = rng.normal(size=(n_queries, n_candidates))
        golds = [int(g) for g in rng.integers(0, n_candidates, size=n_queries)]
        queries = [KnowledgeTriple(i, 0, golds[i]) for i in range(n_queries)]
        ranks = [rank_of_gold(rows[i], golds[i]) for i in range(n_queries)]
        report = aggregate_report(queries, ranks, "full", None, None)
        mr, mrr, h10, h20, brute_ranks = _brute_metrics(rows, golds)
        assert [x for _, _, _, x in report.ranks] == brute_ranks
        assert report.mr == mr
        assert report.mrr == mrr
        assert report.hits10 == h10
        assert report.hits20 == h20


def test_hand_three_query_metrics():
    rows = np.array([
        [9.0, 1.0, 0.0, -1.0],   # gold 0 -> rank 1
        [2.0, 9.0, 0.0, -1.0],   # gold 0 -> rank 2
        [0.0, 9.0, 5.0, 3.0],    # gold 0 -> rank 4
    ])
    queries = [KnowledgeTriple(i, 0, 0) for i in range(3)]
    ranks = [rank_of_gold(row, 0) for row in rows]
    report = aggregate_report(queries, ranks, "full", None, None)
    assert ranks == [1.0, 2.0, 4.0]
    assert report.mrr == pytest.approx(7.0 / 12.0, abs=1e-15)
    assert report.mr == pytest.approx(7.0 / 3.0, abs=1e-15)


# -- end-to-end ranking protocols -------------------------------------------


def test_perfect_query_scores_all_ones():
    graph, store = eval_setup()
    entity_matrix = frozen_entity_matrix(graph, store, MODEL)
    # first (h, r) whose trunk survives both ReLUs and has a unique top tail
    for h in range(graph.entity_count):
        for r in range(graph.relation_count):
            trunk = frozen_trunk(
                store, SCORER, entity_matrix[[h]], store["relation_embeddings"].data[[r]])[0]
            scores = entity_matrix @ trunk
            best = int(np.argmax(scores))
            if np.any(trunk != 0.0) and np.sum(scores == scores[best]) == 1:
                break
        else:
            continue
        break
    else:
        pytest.fail("fixture has no query with a unique top score")
    report = kg_completion_eval(
        graph, store, MODEL, SCORER, [KnowledgeTriple(h, r, best)],
        EvalProtocol(mode="full"),
    )
    assert report.mr == 1.0
    assert report.mrr == 1.0
    assert report.hits10 == 1.0


def test_sampled_with_k_vocab_minus_one_equals_full():
    graph, store = eval_setup()
    triples = list(graph.triples[:8])
    full = kg_completion_eval(graph, store, MODEL, SCORER, triples, EvalProtocol(mode="full"))
    sampled = kg_completion_eval(
        graph, store, MODEL, SCORER, triples,
        EvalProtocol(mode="sampled", k=graph.entity_count - 1, seed=9),
    )
    assert [x for *_, x in sampled.ranks] == [x for *_, x in full.ranks]
    assert sampled.mr == full.mr
    assert sampled.mrr == full.mrr


def test_sampled_protocol_is_seed_deterministic():
    graph, store = eval_setup()
    triples = list(graph.triples[:6])
    protocol = EvalProtocol(mode="sampled", k=5, seed=3)
    a = kg_completion_eval(graph, store, MODEL, SCORER, triples, protocol)
    b = kg_completion_eval(graph, store, MODEL, SCORER, triples, protocol)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("n", [2, 3, 50, 2000])
def test_sampled_candidates_draw_the_stream_of_a_choice_from_the_others(n):
    """The negatives are those a choice from every entity but t would draw."""
    for t in sorted({0, n // 2, n - 1}):
        for k in sorted({1, (n - 1) // 2 or 1, n - 1}):
            query = KnowledgeTriple(n - 1 - t, 1, t)
            rng = np.random.default_rng(np.random.SeedSequence([4, *query]))
            expected = np.concatenate(
                (rng.choice(np.delete(np.arange(n), t), size=k, replace=False), [t]))
            got = evaluation._sampled_candidates(n, k, 4, query)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


def test_sampled_rank_bounded_by_candidate_count():
    graph, store = eval_setup()
    triples = list(graph.triples[:10])
    report = kg_completion_eval(
        graph, store, MODEL, SCORER, triples, EvalProtocol(mode="sampled", k=4, seed=0))
    for *_, rank in report.ranks:
        assert 1.0 <= rank <= 5.0


def test_sampled_k_must_be_below_vocabulary():
    graph, store = eval_setup()
    with pytest.raises(ValueError, match="entity vocabulary"):
        kg_completion_eval(
            graph, store, MODEL, SCORER, [graph.triples[0]],
            EvalProtocol(mode="sampled", k=graph.entity_count),
        )


def test_empty_test_set_rejected():
    graph, store = eval_setup()
    with pytest.raises(ValueError, match="no test triples"):
        kg_completion_eval(graph, store, MODEL, SCORER, [], EvalProtocol(mode="full"))


def test_filtered_ranking_drops_other_known_tails():
    graph, store = eval_setup()
    entity_matrix = frozen_entity_matrix(graph, store, MODEL)
    h, r = 2, 0
    trunk = frozen_trunk(
        store, SCORER, entity_matrix[[h]], store["relation_embeddings"].data[[r]])[0]
    scores = entity_matrix @ trunk
    order = np.argsort(-scores)
    top, gold = int(order[0]), int(order[3])
    triple = KnowledgeTriple(h, r, gold)
    known = {(h, r): {top, gold}}
    raw = kg_completion_eval(graph, store, MODEL, SCORER, [triple], EvalProtocol(mode="full"))
    filtered = kg_completion_eval(
        graph, store, MODEL, SCORER, [triple],
        EvalProtocol(mode="full", filtered=True), known_tails=known,
    )
    # removing the one better-scoring known-true tail lifts the rank by 1
    assert filtered.ranks[0][3] == raw.ranks[0][3] - 1.0


def test_filtered_ranking_requires_known_tails():
    graph, store = eval_setup()
    with pytest.raises(ValueError, match="known-tails"):
        kg_completion_eval(
            graph, store, MODEL, SCORER, [graph.triples[0]],
            EvalProtocol(mode="full", filtered=True),
        )


def _sort_rank(scores, gold):
    # independent route: mean descending-sort position of the gold's tie block
    order = np.argsort(-scores, kind="stable")
    positions = np.empty_like(order)
    positions[order] = np.arange(1, len(scores) + 1)
    return float(np.mean(positions[np.flatnonzero(scores == scores[gold])]))


def block_setup():
    """Seeded parameters and EVAL_BLOCK + 1 queries: the last block holds one."""
    lines = dataset_lines(
        n_entities=20, n_relations=3, n_triples=EVAL_BLOCK + 1, n_events=4,
        min_args=2, max_args=3, n_temporal=2, seed=8,
    )
    graph, store = build_model(build_from_lines(*lines), MODEL, SCORER)
    queries = list(graph.triples)
    return graph, store, queries, known_tails_from_triples(queries)


PROTOCOLS = {
    "full": EvalProtocol(mode="full"),
    "filtered": EvalProtocol(mode="full", filtered=True),
    "sampled": EvalProtocol(mode="sampled", k=5, seed=3),
    "sampled_filtered": EvalProtocol(mode="sampled", k=5, seed=3, filtered=True),
}


def test_blocked_ranking_matches_one_row_trunk_oracle():
    graph, store, queries, known = block_setup()
    tape = Tape()
    vecs = forward_model(tape, graph, store, MODEL).data
    relations = store["relation_embeddings"].data
    rows = frozen_trunk(
        store, SCORER, vecs[[h for h, _, _ in queries]], relations[[r for _, r, _ in queries]]
    )
    oracle_scores = []
    for i, (h, r, t) in enumerate(queries):
        one = conv_trunk(tape, store, SCORER, Tensor(vecs[[h]]), Tensor(relations[[r]]))
        assert np.max(np.abs(rows[i] - one.data[0])) <= 1e-12
        oracle_scores.append(score_against_all(
            tape, store, SCORER, Tensor(vecs[h]), Tensor(relations[r]), Tensor(vecs)
        ).data)

    for protocol in PROTOCOLS.values():
        report = kg_completion_eval(graph, store, MODEL, SCORER, queries, protocol, known)
        for i, (h, r, t) in enumerate(queries):
            if protocol.mode == "full":
                candidates = list(range(graph.entity_count))
            else:
                candidates = list(evaluation._sampled_candidates(
                    graph.entity_count, protocol.k, protocol.seed, queries[i]))
            others = known[(h, r)] - {t} if protocol.filtered else set()
            keep = [c for c in candidates if c not in others]
            expected = _sort_rank(oracle_scores[i][keep], keep.index(t))
            assert report.ranks[i] == (h, r, t, expected), protocol


def test_filtered_gold_moves_down_past_removed_tails():
    graph, store = eval_setup()
    entity_matrix = frozen_entity_matrix(graph, store, MODEL)
    h, r = 2, 0
    trunk = frozen_trunk(
        store, SCORER, entity_matrix[[h]], store["relation_embeddings"].data[[r]])[0]
    scores = entity_matrix @ trunk
    # the strictly top-scoring entity, with two entities below its index: if
    # its position did not move down past them it would point at another tail
    gold = int(np.argmax(scores))
    assert np.sum(scores == scores[gold]) == 1 and gold >= 2
    triple = KnowledgeTriple(h, r, gold)
    known = {(h, r): {0, 1, gold}}
    filtered = kg_completion_eval(
        graph, store, MODEL, SCORER, [triple],
        EvalProtocol(mode="full", filtered=True), known_tails=known,
    )
    assert filtered.ranks[0][3] == 1.0


def test_all_zero_trunk_row_ties_every_candidate():
    graph, store, queries, known = block_setup()
    entity_matrix = frozen_entity_matrix(graph, store, MODEL)
    trunks = frozen_trunk(
        store, SCORER, entity_matrix[[h for h, _, _ in queries]],
        store["relation_embeddings"].data[[r for _, r, _ in queries]],
    )
    zero = [i for i in range(len(queries)) if not trunks[i].any()]
    assert zero, "fixture has no query whose trunk dies in the ReLU"
    n = graph.entity_count
    full = kg_completion_eval(graph, store, MODEL, SCORER, queries, PROTOCOLS["full"])
    filtered = kg_completion_eval(
        graph, store, MODEL, SCORER, queries, PROTOCOLS["filtered"], known)
    for i in zero:
        h, r, t = queries[i]
        assert full.ranks[i][3] == (n + 1) / 2
        removed = len(known[(h, r)] - {t})
        assert filtered.ranks[i][3] == (n - removed + 1) / 2


# sha256 of the report JSON for block_setup's seeded parameters: any moved
# rank changes it
PINNED_REPORTS = {
    "full": "eb4f8f9efed99eeb2ba93982fe2e44096ca09e1e9e33fb4de94ecf4ee66c1c19",
    "filtered": "635fcc88cbbc2e468a449ba97cc6a6761834870293727c3d408cd9eda507770d",
    "sampled": "de027f4acff042d0d4d9f5323e54c5e927d86ac03d56eeae3a679b1a2343d828",
    "sampled_filtered": "95e94c70fe0655ea2f6dcc7c7e31257b3a8996bec9a878e98ec66d6ff3154fc0",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_json_is_pinned(name):
    graph, store, queries, known = block_setup()
    report = kg_completion_eval(graph, store, MODEL, SCORER, queries, PROTOCOLS[name], known)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == PINNED_REPORTS[name]


def test_score_row_does_not_depend_on_where_blocks_fall(monkeypatch):
    """Query 69 of the memorization fixture (n = 50) gets the same score
    bytes as row 6 of a short last block and inside two full blocks."""
    graph, store = build_model(
        build_from_lines(*memorization_lines(7)), ModelConfig(), ConvScorerConfig())
    triples = list(graph.triples)
    captured = []

    def spy(scores, golds):
        captured.extend(np.array(scores))
        return rank_of_gold(scores, golds)

    monkeypatch.setattr(evaluation, "rank_of_gold", spy)
    rows = []
    for queries, row in ((triples[:70], 69), (triples[64:128], 5), (triples[6:70], 63)):
        captured.clear()
        kg_completion_eval(
            graph, store, ModelConfig(), ConvScorerConfig(), queries, EvalProtocol())
        rows.append(captured[row].tobytes())
    assert rows[0] == rows[1] == rows[2]


def test_non_finite_parameter_raises_naming_the_query():
    graph, store = eval_setup()
    triples = list(graph.triples[:3])
    store["conv_projection"].data[0, 0] = np.nan
    with pytest.raises(ValueError, match=rf"query 0 \({triples[0][0]}, .*non-finite scores"):
        kg_completion_eval(graph, store, MODEL, SCORER, triples, EvalProtocol(mode="full"))


def test_non_finite_score_of_a_filtered_tail_still_raises(monkeypatch):
    graph, store, queries, known = block_setup()
    # start at a query whose other known tail, masked in its row, is non-finite
    queries = [q for q in queries if known[q[:2]] - {q[2]}]
    h, r, t = queries[0]
    other = min(known[(h, r)] - {t})
    matrix = frozen_entity_matrix(graph, store, MODEL)
    matrix[other] = np.nan
    monkeypatch.setattr(evaluation, "frozen_entity_matrix", lambda *args: matrix)
    with pytest.raises(ValueError, match=rf"query 0 \({h}, {r}, {t}\) has non-finite scores"):
        kg_completion_eval(graph, store, MODEL, SCORER, queries, PROTOCOLS["filtered"], known)


def test_non_finite_pair_raises_naming_the_first_query_in_split_order(monkeypatch):
    """Pairs are scored sorted, (2, 1) before (9, 1), yet the error names
    query 1, the first query in split order with non-finite scores."""
    graph, store = eval_setup()
    relation = store["relation_embeddings"].data[1]
    strip = SplitTrunk.strip

    def spy(self, s_rows, r_rows):
        pieces = strip(self, s_rows, r_rows)
        pieces[(r_rows == relation).all(axis=1)] = np.nan
        return pieces

    monkeypatch.setattr(SplitTrunk, "strip", spy)
    queries = [KnowledgeTriple(5, 0, 1), KnowledgeTriple(9, 1, 2), KnowledgeTriple(2, 1, 3)]
    with pytest.raises(ValueError, match=r"query 1 \(9, 1, 2\) has non-finite scores"):
        kg_completion_eval(graph, store, MODEL, SCORER, queries, EvalProtocol())


def memorization_setup():
    graph, store = build_model(
        build_from_lines(*memorization_lines(7)), ModelConfig(), ConvScorerConfig())
    return graph, store, list(graph.triples)


@pytest.mark.parametrize("bad", [(-1, 0, 3), (3, -1, 3), (3, 10, 3), (50, 0, 3), (3, 0, 50)])
def test_out_of_range_query_raises_naming_the_first_in_split_order(bad):
    """On the memorization fixture (50 entities, 5 relations, 11 relation
    rows) an id outside [0, 50) or a relation outside [0, 5) is one error
    before any ranking, naming the first such query."""
    graph, store, triples = memorization_setup()
    queries = triples[:4] + [KnowledgeTriple(*bad), KnowledgeTriple(60, 20, 60)]
    with pytest.raises(ValueError, match=rf"query 4 \({bad[0]}, {bad[1]}, {bad[2]}\) is out of range"):
        kg_completion_eval(graph, store, ModelConfig(), ConvScorerConfig(), queries, EvalProtocol())


def ranking_trunks_equal_frozen_trunks() -> str:
    """Whether the trunk rows that ranking the memorization fixture computes
    are not all zero and have the bytes of ``frozen_trunk``'s rows of their
    pairs, and the sha256 of those rows."""
    graph, store, queries = memorization_setup()
    blocks = []
    combine = SplitTrunk.combine

    def spy(*pieces):
        blocks.append(combine(*pieces))
        return blocks[-1]

    with mock.patch.object(SplitTrunk, "combine", staticmethod(spy)):
        kg_completion_eval(graph, store, ModelConfig(), ConvScorerConfig(), queries, EvalProtocol())
    pairs = sorted({(h, r) for h, r, _ in queries})
    heads, relations = np.array(pairs).T
    ranked = np.concatenate(blocks)
    frozen = frozen_trunk(
        store, ConvScorerConfig(), frozen_entity_matrix(graph, store, ModelConfig())[heads],
        store["relation_embeddings"].data[relations],
    )
    equal = ranked.any() and ranked.tobytes() == frozen.tobytes()
    return f"{equal} {hashlib.sha256(ranked.tobytes()).hexdigest()}"


def test_ranking_trunks_are_frozen_trunks_at_one_and_two_blas_threads():
    one, two = (digest_in_child("test_evaluation", "ranking_trunks_equal_frozen_trunks", threads)
                for threads in (1, 2))
    assert one.startswith("True ") and one == two


# -- one trunk row per distinct (head, relation) pair ------------------------


@functools.lru_cache(maxsize=1)
def pair_setup():
    """Seeded parameters over 30 entities and 4 relations: 120 possible
    pairs, so a query list can span two pair blocks."""
    lines = dataset_lines(
        n_entities=30, n_relations=4, n_triples=60, n_events=4,
        min_args=2, max_args=3, n_temporal=2, seed=8,
    )
    graph, store = build_model(build_from_lines(*lines), MODEL, SCORER)
    return graph, store, known_tails_from_triples(graph.triples), frozen_entity_matrix(
        graph, store, MODEL)


@functools.lru_cache(maxsize=None)
def one_query_rank(name, query):
    graph, store, known, _ = pair_setup()
    report = kg_completion_eval(graph, store, MODEL, SCORER, [query], PROTOCOLS[name], known)
    return report.ranks[0]


@st.composite
def repeating_queries(draw):
    """Queries over a few (head, relation) pairs, some triples repeated."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 3)), min_size=1, max_size=90))
    tails = st.integers(0, 29)
    queries = draw(st.lists(
        st.builds(lambda pair, t: KnowledgeTriple(*pair, t), st.sampled_from(pairs), tails),
        min_size=1, max_size=160,
    ))
    return queries + draw(st.lists(st.sampled_from(queries), max_size=20))


@settings(max_examples=25, deadline=None)
@given(queries=repeating_queries())
def test_shared_pair_rows_rank_as_one_query_per_call(queries):
    graph, store, known, matrix = pair_setup()
    # the forward is the same for every call; computing it once keeps the
    # one-query calls cheap
    with mock.patch.object(evaluation, "frozen_entity_matrix", lambda *args: matrix):
        for name, protocol in PROTOCOLS.items():
            report = kg_completion_eval(graph, store, MODEL, SCORER, queries, protocol, known)
            assert report.ranks == [one_query_rank(name, query) for query in queries], name


def test_ranking_runs_the_trunk_once_per_distinct_pair(monkeypatch):
    """The memorization fixture's 300 queries hold 250 distinct pairs: the
    head piece runs once over their 50 heads, the relation piece once over
    the 11 relation rows, and the strip piece over the 250 pairs in four
    blocks."""
    graph, store, queries = memorization_setup()
    assert len(queries) == 300 and len({(h, r) for h, r, _ in queries}) == 250
    calls = []
    for name in ("head", "relation", "strip"):
        def spy(self, *rows, piece=getattr(SplitTrunk, name), name=name):
            calls.append((name, len(rows[0])))
            return piece(self, *rows)
        monkeypatch.setattr(SplitTrunk, name, spy)
    kg_completion_eval(graph, store, ModelConfig(), ConvScorerConfig(), queries, EvalProtocol())
    assert calls == [("head", 50), ("relation", 11)] + [("strip", q) for q in (64, 64, 64, 58)]


# One filtered ranking call over these 4,000 queries (3,849 distinct pairs,
# 2,000 entities) peaked at 10,244,831 bytes (tracemalloc) when every query
# ran its own trunk row in 64-query blocks, almost all of it the entity
# forward.  A (pairs, n) score table would add 3,849 * 2,000 * 8 bytes.
PER_QUERY_RANKING_PEAK = 10_244_831


def test_filtered_ranking_peak_stays_at_a_few_blocks():
    lines = dataset_lines(
        n_entities=2000, n_relations=20, n_triples=4000, n_events=100,
        min_args=2, max_args=4, n_temporal=100, seed=5,
    )
    graph, store = build_model(build_from_lines(*lines), ModelConfig(), ConvScorerConfig())
    queries = list(graph.triples)
    args = (graph, store, ModelConfig(), ConvScorerConfig(), queries,
            EvalProtocol(filtered=True), known_tails_from_triples(queries))
    kg_completion_eval(*args)  # builds the graph's plans and the trunk buffers
    tracemalloc.start()
    try:
        kg_completion_eval(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PER_QUERY_RANKING_PEAK + 2 * 2**20


# -- report serialization ---------------------------------------------------


def test_report_json_key_order_and_round_trip():
    queries = [KnowledgeTriple(0, 1, 2), KnowledgeTriple(3, 1, 4)]
    report = aggregate_report(queries, [1.0, 3.5], "sampled", 5, 7)
    text = report.to_json()
    keys = list(json.loads(text).keys())
    assert keys == ["protocol", "K", "seed", "mr", "mrr", "hits10", "hits20", "ranks"]
    assert RankingReport.from_json(text) == report


def test_report_invariants_hold():
    queries = [KnowledgeTriple(i, 0, 0) for i in range(4)]
    report = aggregate_report(queries, [1.0, 2.0, 11.0, 15.0], "full", None, None)
    assert report.hits10 <= report.hits20
    assert 0.0 < report.mrr <= 1.0


# -- rank_diff --------------------------------------------------------------


def _single_query_report(rank, h=0, r=0, t=1):
    return aggregate_report([KnowledgeTriple(h, r, t)], [rank], "full", None, None)


def test_rank_diff_identical_reports_all_zero():
    queries = [KnowledgeTriple(0, 0, 1), KnowledgeTriple(2, 1, 3)]
    report = aggregate_report(queries, [4.0, 9.0], "full", None, None)
    rows = rank_diff(report, report)
    assert [row["improvement"] for row in rows] == [0.0, 0.0]


def test_rank_diff_improvement_format():
    before = _single_query_report(117.0)
    after = _single_query_report(3.0)
    rows = rank_diff(before, after)
    assert rows == [
        {"query": [0, 0, 1], "rank_a": 117.0, "rank_b": 3.0, "improvement": 114.0}
    ]


def test_rank_diff_sorted_by_improvement():
    queries = [KnowledgeTriple(i, 0, 0) for i in range(3)]
    a = aggregate_report(queries, [10.0, 50.0, 30.0], "full", None, None)
    b = aggregate_report(queries, [9.0, 20.0, 29.5], "full", None, None)
    rows = rank_diff(a, b)
    assert [row["improvement"] for row in rows] == [30.0, 1.0, 0.5]


def test_rank_diff_disjoint_queries_error():
    a = _single_query_report(4.0, h=0)
    b = _single_query_report(4.0, h=9)
    with pytest.raises(ValueError, match="share no queries"):
        rank_diff(a, b)


# -- classification probes --------------------------------------------------


def separable_fixture(d=4, per_class=6, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.zeros((2, d))
    centers[0, 0] = 2.0
    centers[1, 0] = -2.0
    vectors = []
    examples = []
    for label in (0, 1):
        for _ in range(per_class):
            vectors.append(centers[label] + 0.1 * rng.normal(size=d))
            examples.append(((len(vectors) - 1,), label))
    rng.shuffle(examples)
    splits = {
        "train": examples[: per_class * 2 - 6],
        "val": examples[per_class * 2 - 6 : per_class * 2 - 3],
        "test": examples[per_class * 2 - 3 :],
    }
    return np.array(vectors), splits


def test_separable_two_class_probe_is_perfect():
    vectors, splits = separable_fixture()
    result = train_head_on_vectors(vectors, splits, 2, HeadConfig(fine_tune=False))
    assert result.accuracy == 1.0
    assert result.input_width == 4


def test_constant_labels_probe_is_perfect():
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(9, 4))
    examples = [((i,), 1) for i in range(9)]
    splits = {"train": examples[:5], "val": examples[5:7], "test": examples[7:]}
    # wide hidden layer so no test input dies in the ReLU
    result = train_head_on_vectors(
        vectors, splits, 2, HeadConfig(fine_tune=False, hidden=16))
    assert result.accuracy == 1.0


def test_relation_probe_input_width_is_two_d():
    graph, store = eval_setup()
    examples = relation_examples(list(graph.triples))
    splits = {"train": examples[:12], "val": examples[12:16], "test": examples[16:]}
    result = train_head_on_vectors(
        frozen_entity_matrix(graph, store, MODEL), splits,
        graph.relation_count, HeadConfig(fine_tune=False, max_epochs=5),
    )
    assert result.input_width == 2 * MODEL.dim


def test_probe_accuracy_invariant_under_label_permutation():
    vectors, splits = separable_fixture(seed=4)
    flipped = {
        name: [(ids, 1 - label) for ids, label in examples]
        for name, examples in splits.items()
    }
    config = HeadConfig(fine_tune=False, max_epochs=30)
    base = train_head_on_vectors(vectors, splits, 2, config)
    swapped = train_head_on_vectors(vectors, flipped, 2, config)
    assert base.accuracy == swapped.accuracy
    assert base.best_epoch == swapped.best_epoch


def test_probe_warns_on_label_missing_from_train(caplog):
    rng = np.random.default_rng(2)
    vectors = rng.normal(size=(8, 4))
    splits = {
        "train": [((0,), 0), ((1,), 0), ((2,), 0)],
        "val": [((3,), 1)],
        "test": [((4,), 0), ((5,), 1)],
    }
    with caplog.at_level("WARNING", logger="eventke.evaluation"):
        train_head_on_vectors(vectors, splits, 2, HeadConfig(fine_tune=False, max_epochs=3))
    assert "never appear in the training split" in caplog.text


def test_probe_rejects_empty_split():
    vectors = np.zeros((4, 4))
    splits = {"train": [((0,), 0)], "val": [((1,), 0)], "test": []}
    with pytest.raises(ValueError, match="empty test split"):
        train_head_on_vectors(vectors, splits, 1, HeadConfig())


def test_fine_tune_probe_runs_and_preserves_caller_params():
    graph, store = eval_setup()
    before = {k: v.copy() for k, v in store.state_arrays().items()}
    labels = [i % 2 for i in range(graph.entity_count)]
    examples = [((i,), labels[i]) for i in range(graph.entity_count)]
    splits = {"train": examples[:8], "val": examples[8:10], "test": examples[10:]}
    config = HeadConfig(fine_tune=True, max_epochs=4, patience=4)
    result = train_head_on_model(graph, store, MODEL, splits, 2, config)
    assert 0.0 <= result.accuracy <= 1.0
    assert result.input_width == MODEL.dim
    for name, arr in store.state_arrays().items():
        np.testing.assert_array_equal(arr, before[name])
    again = train_head_on_model(graph, store, MODEL, splits, 2, config)
    assert again.accuracy == result.accuracy


def test_frozen_flag_matches_vector_path():
    graph, store = eval_setup()
    examples = [((i,), i % 3) for i in range(graph.entity_count)]
    splits = {"train": examples[:8], "val": examples[8:10], "test": examples[10:]}
    config = HeadConfig(fine_tune=False, max_epochs=6)
    via_model = train_head_on_model(graph, store, MODEL, splits, 3, config)
    via_vectors = train_head_on_vectors(
        frozen_entity_matrix(graph, store, MODEL), splits, 3, config)
    assert via_model.accuracy == via_vectors.accuracy


def _probe_with_head(monkeypatch, train):
    """Run a probe; returns its HeadResult and its trained head."""
    heads = []
    make = evaluation._head_params

    def capture(*args):
        heads.append(make(*args))
        return heads[-1]

    monkeypatch.setattr(evaluation, "_head_params", capture)
    return train(), heads[0]


# Results of the probe loops before they were merged into one loop on
# trainer.adam_step and EarlyStopper; the merged loop reproduces them.
PINNED_PROBES = {
    "frozen": (
        HeadResult(accuracy=1.0, best_epoch=8, hidden_width=4, input_width=4),
        [[0.8368529797277171, 0.027447571854183894, -0.7795961977264887, 0.19491364856481266],
         [-0.7579075976254868, -0.4261998838781004, 0.29383552688432246, -0.012329048775993718],
         [-0.15147430385903252, 0.7620418695340838, -0.2907586890684362, -0.2764601354200581],
         [0.7823845482912142, 0.580911167158858, -0.4470491849754962, 0.21895050516486123]],
        [[0.007996028569584987, -0.007998558522363693, -0.008004298304452732, 0.007996150693228432],
         [-0.007996028569584987, 0.007998558522363693, 0.008004298304452732, -0.007996150693228432]],
    ),
    "relation": (
        HeadResult(accuracy=0.5, best_epoch=6, hidden_width=3, input_width=8),
        [[0.9136887055929, 0.23562658286046068, -0.583453783658231, 0.3855605493606022,
          -0.4258825418972063, -0.15437719359352464, 0.4601462278293935, 0.19802955340969733],
         [-0.33709758120428895, 0.4309913533505196, -0.04153889910607508, -0.035715759681948775,
          0.8786445132468125, 0.7169984931354527, -0.16681135086514165, -0.021776398018940907],
         [0.18312254973726672, -0.22918529950119812, 0.26577244770796515, 0.3799422431762237,
          0.3589538735619347, 0.32623841844342794, 0.6641953677846444, -0.061976490179774864]],
        [[0.299580792116904, -0.29942894223113586, -0.20354525505018908],
         [-0.30051918467551486, -0.2821391224517895, -0.3013647901761385],
         [-0.2950552577469125, 0.29589891162173704, 0.3008460384793036]],
    ),
    "fine_tune": (
        HeadResult(accuracy=0.5, best_epoch=8, hidden_width=4, input_width=4),
        [[0.5934634558785112, -0.11722365832360576, -0.9847633950716088, 0.48518985877264253],
         [-0.9065195642682253, -0.21944181573445287, 0.5937513393170196, 0.023844959574429392],
         [0.10867285763556105, 1.0095750066469464, -0.04552598224592984, -0.43744978246309996],
         [1.0303527650705462, 0.8407018232921206, -0.1906444748249895, -0.05359318456975175]],
        [[-0.3648949454064173, 0.3893966263202322, 0.3453741977476529, 0.2807176859262577],
         [0.3648949454064173, -0.3893966263202322, -0.3453741977476529, -0.28071768592625795]],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_PROBES))
def test_probe_results_are_pinned(case, monkeypatch):
    graph, store = eval_setup()
    if case == "frozen":
        vectors, splits = separable_fixture()
        config = HeadConfig(fine_tune=False, max_epochs=8)
        run = lambda: train_head_on_vectors(vectors, splits, 2, config)
    elif case == "relation":
        examples = relation_examples(list(graph.triples))
        splits = {"train": examples[:12], "val": examples[12:16], "test": examples[16:]}
        config = HeadConfig(
            fine_tune=False, max_epochs=40, patience=3, hidden=3, learning_rate=0.05)
        run = lambda: train_head_on_model(
            graph, store, MODEL, splits, graph.relation_count, config)
    else:
        examples = [((i,), i % 2) for i in range(graph.entity_count)]
        splits = {"train": examples[:8], "val": examples[8:10], "test": examples[10:]}
        config = HeadConfig(fine_tune=True, max_epochs=40, patience=3, learning_rate=0.05)
        run = lambda: train_head_on_model(graph, store, MODEL, splits, 2, config)
    result, head = _probe_with_head(monkeypatch, run)
    expected, hidden, output = PINNED_PROBES[case]
    assert result == expected
    np.testing.assert_allclose(head["head_hidden"].data, hidden, rtol=0, atol=1e-12)
    np.testing.assert_allclose(head["head_output"].data, output, rtol=0, atol=1e-12)
