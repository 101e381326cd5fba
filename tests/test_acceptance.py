"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they complete.  The full-scale reproduction against the real
competition dataset is excluded from CI and documented in the README.
"""

import hashlib
import io
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import (
    make_records,
    model_gradient_check,
    tiny_batch,
    tiny_model,
    tiny_stats,
    tiny_vocab,
)
from taxidest import data, fixtures, models, nncore, training
from taxidest.cli import main
from taxidest.clustering import MeanShiftConfig, mean_shift
from taxidest.data import PrefixSampler, make_prefix_example
from taxidest.geo import EARTH, GeoPoint, equirectangular_distance, haversine_distance
from taxidest.models import ModelConfig, build_model
from taxidest.nncore import Tape


def _criterion(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


CENTROID_VARIANTS = (
    "mlp_clusters",
    "mlp_no_embed",
    "mlp_embed_only",
    "rnn",
    "brnn",
    "brnn_window",
    "memory_net",
)


def test_gradient_correctness_all_variants():
    """All 8 architectures pass end-to-end FD checks, rel < 1e-3, < 60 s."""
    t0 = time.perf_counter()
    worst_overall = 0.0
    detail = []
    for variant in models.VARIANTS:
        rng = np.random.default_rng(3)
        model = tiny_model(variant)  # C=4, hidden=6, double precision
        batch = tiny_batch(model, rng, n=2, max_len=4)
        cands = tiny_batch(model, rng, n=3) if variant == "memory_net" else None
        worst, name = model_gradient_check(model, batch, cands, h=1e-5)
        detail.append(f"{variant}={worst:.1e}")
        worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - t0
    _criterion(
        "gradient-correctness",
        worst_overall < 1e-3 and elapsed < 60.0,
        f"worst rel {worst_overall:.2e} over 8 variants in {elapsed:.1f}s ({', '.join(detail)})",
    )


def test_geodesy_agreement_symmetry_identity():
    """Equirect vs Haversine rel error < 1e-3 on 1e4 pairs within 30 km."""
    rng = np.random.default_rng(41)
    center = GeoPoint(41.15, -8.61)
    max_rel = 0.0
    checked = 0
    while checked < 10_000:
        lat = center.lat + rng.uniform(-0.2698, 0.2698, 2)
        lon = center.lon + rng.uniform(-0.3583, 0.3583, 2)
        a = GeoPoint(lat[0], lon[0])
        b = GeoPoint(lat[1], lon[1])
        if (
            haversine_distance(center, a) > 30_000
            or haversine_distance(center, b) > 30_000
        ):
            continue
        hav = haversine_distance(a, b)
        assert hav == haversine_distance(b, a)
        assert equirectangular_distance(a, b) == equirectangular_distance(b, a)
        if hav > 1.0:
            max_rel = max(max_rel, abs(equirectangular_distance(a, b) - hav) / hav)
        checked += 1
    p = GeoPoint(41.2, -8.6)
    identity_ok = haversine_distance(p, p) == 0.0 and equirectangular_distance(p, p) == 0.0
    _criterion(
        "geodesy",
        max_rel < 1e-3 and identity_ok,
        f"max relative deviation {max_rel:.2e} on 10^4 pairs; identity zero; symmetric",
    )


def _cross2(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_of(points: np.ndarray) -> np.ndarray:
    """Convex hull (CCW, no duplicate endpoint) of a tiny point set."""
    pts = sorted(map(tuple, points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.array(lower[:-1] + upper[:-1])


def _in_hull(p, hull: np.ndarray, eps: float) -> bool:
    n = len(hull)
    if n == 1:
        return bool(np.linalg.norm(p - hull[0]) <= eps)
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        if _cross2(a, b, p) < -eps:
            return False
    return True


def test_hull_invariant_centroid_variants():
    """Predictions of every centroid-output variant stay in the centers' hull."""
    rng = np.random.default_rng(42)
    worst_violation = 0.0
    for variant in CENTROID_VARIANTS:
        model = tiny_model(variant)
        cands = tiny_batch(model, rng, n=4, max_len=4) if variant == "memory_net" else None
        if variant == "memory_net":
            bounds_pts = np.array([[c.target.lat, c.target.lon] for c in cands])
        else:
            bounds_pts = model.clusters.centers
        hull = _hull_of(bounds_pts)
        lo, hi = bounds_pts.min(axis=0), bounds_pts.max(axis=0)
        preds = []
        for start in range(0, 1000, 250):
            batch = tiny_batch(model, rng, n=250, max_len=4)
            preds.append(models.predict(model, batch, cands))
        pred = np.concatenate(preds)
        viol = max(
            float((lo - pred).max(initial=0.0)), float((pred - hi).max(initial=0.0))
        )
        worst_violation = max(worst_violation, viol)
        assert all(_in_hull(p, hull, eps=1e-9) for p in pred), variant
    _criterion(
        "hull-invariant",
        worst_violation <= 1e-9,
        f"10^3 inputs x {len(CENTROID_VARIANTS)} variants; worst bbox violation {worst_violation:.1e} deg; "
        "exact hull membership at C<=4",
    )


def test_prefix_distribution_chi_square():
    """PrefixSampler matches uniform-over-all-prefixes on a 20-prefix corpus."""
    rng = np.random.default_rng(0)
    lengths = [2, 3, 7, 8]  # 20 prefixes total
    recs = make_records(lengths, rng)
    sampler = PrefixSampler(recs)
    assert sampler.total_prefixes == 20
    g = np.random.default_rng(123)
    counts = {}
    draws = 100_000
    for _ in range(draws):
        rec, cut = sampler.sample(g)
        counts[(rec.trip_id, cut)] = counts.get((rec.trip_id, cut), 0) + 1
    observed = [
        counts.get((f"t{i}", c), 0) for i, n in enumerate(lengths) for c in range(1, n + 1)
    ]
    chi2, p = scipy_stats.chisquare(observed)
    _criterion(
        "prefix-distribution",
        p > 0.01,
        f"chi2 p = {p:.3f} over 20 prefix bins, 10^5 draws (significance 0.01)",
    )


def test_mean_shift_mode_recovery():
    """Two 1000-point sigma=100m blobs 5 km apart -> exactly 2 centers within 30 m."""
    rng = np.random.default_rng(21)
    deg_lat = EARTH.radius_m * math.pi / 180.0
    deg_lon = deg_lat * math.cos(math.radians(41.15))

    def blob(center_east_m, n):
        lat = 41.15 + rng.normal(0, 100, n) / deg_lat
        lon = -8.61 + (center_east_m + rng.normal(0, 100, n)) / deg_lon
        return np.column_stack([lat, lon])

    b1, b2 = blob(0.0, 1000), blob(5000.0, 1000)
    pts = np.concatenate([b1, b2])
    cfg = MeanShiftConfig(bandwidth_m=500)
    mean_shift(pts[:5], cfg)  # first call outside the timed region
    t0 = time.perf_counter()
    cs = mean_shift(pts, cfg)
    elapsed = time.perf_counter() - t0
    errors = []
    for b in (b1, b2):
        sm = GeoPoint(*b.mean(axis=0))
        errors.append(min(haversine_distance(sm, GeoPoint(*c)) for c in cs.centers))
    _criterion(
        "mean-shift-recovery",
        cs.count == 2 and max(errors) < 30.0 and elapsed < 10.0,
        f"{cs.count} centers, offsets from sample means {errors[0]:.2f} m / {errors[1]:.2f} m, "
        f"{elapsed:.2f} s",
    )


def test_overfit_smoke_reference_configuration():
    """Reference config on 50 trajectories (train = validation): loss < 20% of
    its initial value within 5000 batches, under 3 minutes."""
    recs = fixtures.generate_city_records(50, seed=7)
    stats = data.fit_standardization(recs)
    vocab = data.build_vocab(recs)
    dests = np.array([r.polyline[-1] for r in recs])
    clusters = mean_shift(dests, MeanShiftConfig())
    config = ModelConfig(variant="mlp_clusters")  # k=5, hidden=500, embeddings 10
    model = build_model(config, clusters, stats, vocab, seed=0)
    train_cfg = training.TrainConfig()  # lr 0.01, momentum 0.9, batch 200

    sampler = PrefixSampler(recs)
    rng = np.random.default_rng(train_cfg.seed)
    t0 = time.perf_counter()
    initial = None
    final = None
    batches_used = 0
    for b in range(1, 5001):
        batch = []
        for _ in range(train_cfg.batch_size):
            rec, cut = sampler.sample(rng)
            batch.append(make_prefix_example(rec, cut, config.k, stats, vocab))
        tape = Tape()
        loss = training.loss_batch(model, batch, tape)
        tape.backward(nncore.scale(tape, loss, 1e-3))
        nncore.sgd_momentum_step(model.parameters(), train_cfg.learning_rate, train_cfg.momentum)
        value = float(loss.data)
        if initial is None:
            initial = value
        final = value
        batches_used = b
        if value < 0.2 * initial:
            break
    elapsed = time.perf_counter() - t0
    _criterion(
        "overfit-smoke",
        final < 0.2 * initial and batches_used <= 5000 and elapsed < 180.0,
        f"loss {initial:.0f} m -> {final:.0f} m ({final / initial:.1%}) "
        f"in {batches_used} batches, {elapsed:.1f} s",
    )


def _run_pipeline(base, csv_path, seed=5):
    data_dir = base / "data"
    ckpt = base / "model.ckpt"
    ccsv = base / "clusters.csv"
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["prepare", "--input", str(csv_path), "--out", str(data_dir),
                     "--val", "8", "--test", "8", "--seed", str(seed)]) == 0
        assert main(["cluster", "--data", str(data_dir), "--out", str(ccsv)]) == 0
        assert main([
            "train", "--data", str(data_dir), "--clusters", str(ccsv),
            "--variant", "mlp_clusters", "--k", "5", "--hidden", "16",
            "--embedding-dim", "4", "--batch", "16",
            "--max-batches", "500", "--validate-every", "100", "--patience", "99",
            "--seed", str(seed), "--out", str(ckpt),
        ]) == 0
    eval_out = io.StringIO()
    with redirect_stdout(eval_out):
        assert main(["evaluate", "--model", str(ckpt), "--data", str(data_dir),
                     "--split", "test"]) == 0
    digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    # the report's summary line names the per-run checkpoint path; compare
    # the validation history, which must match bit for bit
    history = (base / "model.ckpt.report.jsonl").read_text().splitlines()[:-1]
    return digest, eval_out.getvalue(), history


def test_determinism_full_pipeline(tmp_path):
    """prepare -> cluster -> train(500 batches) -> evaluate twice: bit-identical."""
    csv_path = tmp_path / "city.csv"
    fixtures.generate_city_csv(csv_path, 60, seed=3)
    run_a = _run_pipeline(tmp_path / "a", csv_path)
    run_b = _run_pipeline(tmp_path / "b", csv_path)
    _criterion(
        "determinism",
        run_a == run_b,
        f"checkpoint sha256 {run_a[0][:12]}.. identical; evaluate output {run_a[1].strip()!r} identical",
    )


def test_shape_audit_reference_model():
    """Exact closed-form parameter count for the reference configuration."""
    vocab = tiny_vocab()
    recs = fixtures.generate_city_records(30, seed=1)
    dests = np.array([r.polyline[-1] for r in recs])
    clusters = mean_shift(dests, MeanShiftConfig())
    c = clusters.count
    model = build_model(ModelConfig(variant="mlp_clusters"), clusters, tiny_stats(), vocab, seed=0)
    tables = (vocab.client_size + vocab.taxi_size + vocab.stand_size + 96 + 7 + 52) * 10
    expected = 80 * 500 + 500 + 500 * c + c + tables
    actual = model.parameter_count()
    _criterion(
        "shape-audit",
        actual == expected,
        f"parameter count {actual} == 80*500 + 500 + 500*{c} + {c} + {tables}",
    )


@pytest.mark.skip(
    reason="full-scale reproduction needs the 1.6 GB competition dataset; "
    "see README for the recipe (target: mean Haversine <= 3.2 km on a "
    "19770-trajectory held-out test split)"
)
def test_full_scale_reproduction():
    pass
