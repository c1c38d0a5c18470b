import json

import numpy as np
import pytest

from swiptifc.channel import (
    ChannelSet,
    channel_digest,
    channel_document,
    draw_channel_set,
    load_channels,
    save_channels,
    stacked_channel,
    swap_roles,
)
from swiptifc.exceptions import (
    ChannelFormatError,
    DegenerateChannelError,
    InvalidInputError,
)

ALPHA = np.array([[1.0, 0.8], [0.8, 1.0]])


def test_norms_hit_gain_profile_exactly():
    for m_t, m_r in [(2, 2), (4, 4), (3, 4), (15, 15), (4, 3)]:
        cs = draw_channel_set(m_t, m_r, ALPHA, seed=11)
        scale = max(m_t, m_r)
        for (i, j), h in (((1, 1), cs.h11), ((1, 2), cs.h12), ((2, 1), cs.h21), ((2, 2), cs.h22)):
            want = ALPHA[i - 1, j - 1] * scale
            assert np.linalg.norm(h, "fro") ** 2 == pytest.approx(want, rel=1e-12)
            assert h.shape == (m_r, m_t)


def test_draws_are_reproducible_and_seed_sensitive():
    a = draw_channel_set(3, 3, ALPHA, seed=5)
    b = draw_channel_set(3, 3, ALPHA, seed=5)
    c = draw_channel_set(3, 3, ALPHA, seed=6)
    assert np.array_equal(a.h11, b.h11) and np.array_equal(a.h22, b.h22)
    assert not np.array_equal(a.h11, c.h11)


def test_links_use_independent_substreams():
    # the direct link must not move when only the dimensions of the other
    # links' usage would change; substreams are keyed by (i, j) alone
    a = draw_channel_set(3, 3, ALPHA, seed=9)
    seq = np.random.SeedSequence(9, spawn_key=(1, 1))
    z = np.random.Generator(np.random.PCG64(seq)).standard_normal((3, 3, 2))
    raw = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    raw *= np.sqrt(ALPHA[0, 0] * 3) / np.linalg.norm(raw, "fro")
    assert np.allclose(a.h11, raw)


def test_entry_statistics_are_standard_complex_normal():
    # pre-normalization entries are CN(0, 1); with the norm pinned the
    # empirical per-entry second moment should sit near alpha*max/(mt*mr)
    cs = [draw_channel_set(4, 4, np.ones((2, 2)), seed=s) for s in range(300)]
    vals = np.array([np.abs(c.h11) ** 2 for c in cs])
    assert vals.mean() == pytest.approx(0.25, rel=0.05)


def test_channelset_validates_alpha_and_shapes():
    cs = draw_channel_set(2, 3, ALPHA, seed=1)
    with pytest.raises(InvalidInputError):
        ChannelSet(cs.h11, cs.h12, cs.h21, cs.h22, np.array([[1.0, -0.5], [0.8, 1.0]]), 2, 3)
    with pytest.raises(InvalidInputError):
        ChannelSet(cs.h11.T, cs.h12, cs.h21, cs.h22, ALPHA, 2, 3)
    # wrong norm
    with pytest.raises(InvalidInputError):
        ChannelSet(2.0 * cs.h11, cs.h12, cs.h21, cs.h22, ALPHA, 2, 3)


@pytest.mark.parametrize(
    "m_t,m_r,seed", [(2.5, 2, 1), (2, True, 1), (2, 0, 1), (2, 2, -1), (2, 2, 1.5), (2, 2, "1")]
)
def test_draw_rejects_bad_counts_and_seeds(m_t, m_r, seed):
    with pytest.raises(InvalidInputError):
        draw_channel_set(m_t, m_r, ALPHA, seed=seed)


def test_draw_accepts_numpy_integers():
    a = draw_channel_set(np.int64(2), np.int32(2), ALPHA, seed=np.uint64(4))
    b = draw_channel_set(2, 2, ALPHA, seed=4)
    assert np.array_equal(a.h11, b.h11) and np.array_equal(a.h22, b.h22)


@pytest.mark.parametrize(
    "m_t,m_r,seed",
    [(2.0, 2, 1), (2, np.float64(2.0), 1), (True, 2, 1), (2, 2, -7), (2, 2, True), (2, 2, 1.0)],
)
def test_channelset_rejects_bad_counts_and_seeds(m_t, m_r, seed):
    # a float count would be saved as "m_t":2.0, which load_channels refuses
    cs = draw_channel_set(2, 2, ALPHA, seed=1)
    with pytest.raises(InvalidInputError, match="antenna counts|seed"):
        ChannelSet(cs.h11, cs.h12, cs.h21, cs.h22, ALPHA, m_t, m_r, seed=seed)


def test_channelset_stores_numpy_integers_as_int(tmp_path):
    cs = draw_channel_set(2, 2, ALPHA, seed=4)
    got = ChannelSet(
        cs.h11, cs.h12, cs.h21, cs.h22, ALPHA, np.int64(2), np.int32(2), seed=np.uint64(4)
    )
    assert all(type(x) is int for x in (got.m_t, got.m_r, got.seed))
    save_channels(got, tmp_path / "ch.json")
    back = load_channels(tmp_path / "ch.json")
    assert channel_document(back) == channel_document(got) == channel_document(cs)


def test_rank_deficient_matrix_is_rejected():
    cs = draw_channel_set(3, 3, ALPHA, seed=2)
    u = np.zeros((3, 3), dtype=complex)
    u[:, 0] = cs.h11[:, 0]
    u *= np.sqrt(3.0) / np.linalg.norm(u, "fro")
    with pytest.raises(DegenerateChannelError):
        ChannelSet(u, cs.h12, cs.h21, cs.h22, ALPHA, 3, 3)


def test_redraw_escapes_rank_loss_at_m1():
    # M=1 never has rank loss unless the scalar is 0; draws always succeed
    for s in range(50):
        cs = draw_channel_set(1, 1, ALPHA, seed=s)
        assert abs(cs.h11[0, 0]) > 0


def test_stacked_channel_and_swap_roles():
    cs = draw_channel_set(3, 4, ALPHA, seed=3)
    s1 = stacked_channel(cs, 1)
    assert s1.shape == (8, 3)
    assert np.array_equal(s1[:4], cs.h11) and np.array_equal(s1[4:], cs.h21)
    s2 = stacked_channel(cs, 2)
    assert np.array_equal(s2[:4], cs.h12) and np.array_equal(s2[4:], cs.h22)

    sw = swap_roles(cs)
    assert np.array_equal(sw.h11, cs.h22)
    assert np.array_equal(sw.h22, cs.h11)
    assert np.array_equal(sw.h12, cs.h21)
    assert np.array_equal(sw.h21, cs.h12)
    assert sw.alpha[0, 0] == cs.alpha[1, 1]
    assert sw.alpha[0, 1] == cs.alpha[1, 0]
    # double swap is the identity
    back = swap_roles(sw)
    assert np.array_equal(back.h11, cs.h11)


def test_document_roundtrip_is_exact(tmp_path):
    cs = draw_channel_set(3, 2, ALPHA, seed=77)
    path = tmp_path / "ch.json"
    save_channels(cs, path)
    back = load_channels(path)
    assert np.array_equal(back.h11, cs.h11)
    assert np.array_equal(back.h22, cs.h22)
    assert back.seed == 77
    assert channel_digest(back) == channel_digest(cs)


def test_digest_ignores_seed_but_not_matrices():
    cs = draw_channel_set(2, 2, ALPHA, seed=5)
    doc = channel_document(cs, include_seed=False)
    clone = ChannelSet(cs.h11, cs.h12, cs.h21, cs.h22, cs.alpha, 2, 2, seed=None)
    assert channel_digest(clone) == channel_digest(cs)
    other = draw_channel_set(2, 2, ALPHA, seed=6)
    assert channel_digest(other) != channel_digest(cs)
    assert '"seed"' not in doc or json.loads(doc).get("seed") is None


def test_load_rejects_malformed_documents(tmp_path):
    cs = draw_channel_set(2, 2, ALPHA, seed=1)
    good = json.loads(channel_document(cs))

    def dump(doc):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        return p

    doc = dict(good)
    doc.pop("m_t")
    with pytest.raises(ChannelFormatError):
        load_channels(dump(doc))

    doc = json.loads(channel_document(cs))
    doc["matrices"]["h11"][0][0] = [1.0]  # not a [re, im] pair
    with pytest.raises(ChannelFormatError) as err:
        load_channels(dump(doc))
    assert "h11" in str(err.value)

    doc = json.loads(channel_document(cs))
    doc["alpha"] = [[1.0, 0.8]]
    with pytest.raises(ChannelFormatError):
        load_channels(dump(doc))

    # the seed is checked by ChannelSet, as draw_channel_set checks it
    for seed in (-7, True, 1.5, "1"):
        doc = json.loads(channel_document(cs))
        doc["seed"] = seed
        with pytest.raises(ChannelFormatError, match="seed"):
            load_channels(dump(doc))

    p = tmp_path / "not.json"
    p.write_text("{nope")
    with pytest.raises(ChannelFormatError):
        load_channels(p)


def test_document_seventeen_digit_floats():
    cs = draw_channel_set(2, 2, ALPHA, seed=4)
    doc = channel_document(cs)
    parsed = json.loads(doc)
    got = parsed["matrices"]["h21"][1][0]
    assert got[0] == cs.h21[1, 0].real
    assert got[1] == cs.h21[1, 0].imag
