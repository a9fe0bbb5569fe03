import threading

import pytest

import lanecast.lanes
from lanecast.lanes import claim_chunks, even_chunks

# every plan of up to 200 items in chunks of at most 1 to 40
PLANS = [(items, most) for items in range(201) for most in range(1, 41)]


def test_even_chunks_cover_the_items_contiguously():
    for items, most in PLANS:
        bounds = even_chunks(items, most)
        assert bounds[0][0] == 0 and bounds[-1][1] == items, (items, most)
        assert all(x[1] == y[0] for x, y in zip(bounds, bounds[1:])), (items, most)


def test_even_chunk_sizes_are_near_equal_and_at_most_most():
    for items, most in PLANS:
        sizes = [b - a for a, b in even_chunks(items, most)]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= most, (items, most)


def test_even_chunk_count_is_even_when_several_capped_at_items():
    for items, most in PLANS:
        fewest = max(1, -(-items // most))
        count = len(even_chunks(items, most))
        if fewest == 1:
            assert count == 1, (items, most)
        else:
            assert count == min(items, fewest + fewest % 2), (items, most)
    assert even_chunks(0, 7) == [(0, 0)]
    assert even_chunks(3, 1) == [(0, 1), (1, 2), (2, 3)]


def test_several_even_chunks_are_none_shorter_than_half_most():
    # evaluate, the heatmap and the test loss rely on this: no chunk of fewer
    # than 512 windows, whose dense products OpenBLAS computes with other bits
    for items, most in PLANS:
        sizes = [b - a for a, b in even_chunks(items, most)]
        if len(sizes) > 1:
            assert min(sizes) >= most // 2, (items, most)


@pytest.mark.parametrize("lanes", [1, 2])
def test_claim_chunks_returns_results_in_chunk_order(lanes, monkeypatch):
    monkeypatch.setattr(lanecast.lanes, "_LANES", lanes)
    chunks = even_chunks(1000, 37)
    made = []

    def buffers():
        made.append([])
        return (made[-1],)

    def work(chunk, seen):
        seen.append(chunk)
        return sum(range(*chunk))

    assert claim_chunks(chunks, work, buffers) == [sum(range(a, b)) for a, b in chunks]
    # each lane gets one set of buffers, and every chunk ran once
    assert len(made) == lanes
    assert sorted(chunk for seen in made for chunk in seen) == chunks


def test_one_chunk_runs_on_the_caller(monkeypatch, worker_log):
    monkeypatch.setattr(lanecast.lanes, "_LANES", 2)
    ran_on = []
    results = claim_chunks([(0, 5)], lambda chunk: ran_on.append(threading.get_ident()) or chunk, tuple)
    assert results == [(0, 5)]
    assert ran_on == [threading.get_ident()] and worker_log == []
    claim_chunks([(0, 5), (5, 9)], lambda chunk: chunk, tuple)
    assert len(worker_log) == 1
