"""RequestStream determinism: same seed => byte-identical requests,
including across an interleaved preload() (satellite of the traffic PR)."""

import numpy as np

from repro.workloads.generators import KeyGenerator, RequestStream, ValueGenerator


def _stream(sigma: float = 0.0, seed: int = 5) -> RequestStream:
    return RequestStream(
        KeyGenerator(256, distribution="zipf", zipf_s=1.2, seed=seed),
        ValueGenerator(size=64, sigma=sigma),
        get_ratio=0.7,
        seed=seed,
    )


def _render(requests) -> bytes:
    return b"|".join(r.op.encode() + b":" + r.key + b"=" + r.value for r in requests)


def test_same_seed_same_requests():
    assert _render(_stream().generate(2_000)) == _render(_stream().generate(2_000))


def test_same_seed_same_requests_with_lognormal_values():
    a = _render(_stream(sigma=1.0).generate(2_000))
    b = _render(_stream(sigma=1.0).generate(2_000))
    assert a == b


def test_values_identical_across_preload():
    """preload() must write exactly the bytes a later SET would carry,
    even with lognormal sizing — value_for is a pure function of the key."""
    plain = _stream(sigma=1.0)
    interleaved = _stream(sigma=1.0)
    preloaded = {r.key: r.value for r in interleaved.preload()}
    for req in plain.generate(2_000):
        if req.op == "set":
            assert preloaded[req.key] == req.value


def test_preload_then_generate_equals_generate():
    """Consuming preload() must not perturb the generate() stream."""
    a = _stream(sigma=1.0)
    list(a.preload())
    b = _stream(sigma=1.0)
    assert _render(a.generate(1_000)) == _render(b.generate(1_000))


def test_lognormal_sizes_vary_by_key_but_not_by_call():
    values = ValueGenerator(size=64, sigma=1.0)
    keys = [b"key:%d" % i for i in range(200)]
    sizes_a = [len(values.value_for(k)) for k in keys]
    sizes_b = [len(values.value_for(k)) for k in keys]
    assert sizes_a == sizes_b  # pure: repeat calls agree
    assert len(set(sizes_a)) > 10  # but sizes genuinely vary across keys
    # centred near the configured size in log space
    assert 32 < float(np.median(sizes_a)) < 128


def test_draw_indices_matches_draw():
    a = KeyGenerator(128, distribution="zipf", zipf_s=1.5, seed=3)
    b = KeyGenerator(128, distribution="zipf", zipf_s=1.5, seed=3)
    assert a.draw(500) == [b.key(int(i)) for i in b.draw_indices(500)]
