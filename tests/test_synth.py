"""Scene generator: placement guarantees, corruption, determinism."""

import numpy as np
import pytest

from rp_reference import col_gap, row_gap
from cramsim.cli import main
from cramsim.errors import ConfigError
from cramsim.oracle import ccl
from cramsim.projection import boxes_from_json
from cramsim.synth import Scene, SynthConfig, generate_corpus, generate_scene


def test_same_seed_reproduces_scene():
    cfg = SynthConfig(noise_density=0.02, fragment_gap=2, seed=9)
    a = generate_scene(cfg)
    b = generate_scene(cfg)
    assert a.frame == b.frame and a.clean == b.clean and a.gt == b.gt


def test_different_seeds_differ():
    a = generate_scene(SynthConfig(seed=1))
    b = generate_scene(SynthConfig(seed=2))
    assert a.frame != b.frame or a.gt != b.gt


def test_corpus_is_deterministic_and_per_frame_varied():
    cfg = SynthConfig(noise_density=0.01, seed=5)
    c1 = generate_corpus(cfg, 8)
    c2 = generate_corpus(cfg, 8)
    assert all(x.frame == y.frame for x, y in zip(c1, c2))
    assert any(c1[0].frame != s.frame for s in c1[1:])
    with pytest.raises(ConfigError):
        generate_corpus(cfg, 0)


def test_boxes_in_bounds_sizes_and_counts():
    cfg = SynthConfig(objects_min=2, objects_max=5, seed=3)
    counts = []
    for scene in generate_corpus(cfg, 100):
        counts.append(len(scene.gt))
        assert 1 <= len(scene.gt) <= cfg.objects_max
        for b in scene.gt:
            assert 0 <= b.r0 <= b.r1 < cfg.height
            assert 0 <= b.c0 <= b.c1 < cfg.width
            assert cfg.side_min <= b.height <= cfg.side_max
            assert cfg.side_min <= b.width <= cfg.side_max
    # splitting is usually feasible, so multi-object scenes dominate
    assert sum(c > 1 for c in counts) > 80


def test_object_count_is_an_upper_bound(tmp_path):
    """4096 rectangles of side 8 do not fit a 64x64 frame: synth places as many
    as the guillotine splits leave room for, and succeeds."""
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), "--frame.width", "64", "--frame.height", "64",
                 "--synth.side_min", "8", "--synth.side_max", "16",
                 "--synth.objects_min", "4096", "--synth.objects_max", "4096",
                 "--synth.frames", "1"]) == 0
    boxes = boxes_from_json((out / "frame_00000.gt.json").read_text())
    assert 1 <= len(boxes) < 4096
    for b in boxes:
        assert 0 <= b.r0 <= b.r1 < 64 and 0 <= b.c0 <= b.c1 < 64
        assert 8 <= b.height <= 16 and 8 <= b.width <= 16


def test_boxes_pairwise_separated_by_band():
    cfg = SynthConfig(objects_min=3, objects_max=5, band_min=3, seed=21)
    for scene in generate_corpus(cfg, 50):
        for i, a in enumerate(scene.gt):
            for b in scene.gt[i + 1:]:
                assert max(row_gap(a, b), col_gap(a, b)) >= cfg.band_min


def test_gt_sorted_and_clean_matches_components():
    cfg = SynthConfig(objects_min=1, objects_max=5, seed=17)
    for scene in generate_corpus(cfg, 100):
        assert scene.gt == sorted(scene.gt, key=lambda b: (b.r0, b.c0, b.r1, b.c1))
        assert scene.frame == scene.clean  # no corruption configured
        assert [c.bbox for c in ccl(scene.clean)] == scene.gt


def test_noise_is_additive_salt_at_requested_density():
    cfg = SynthConfig(noise_density=0.05, seed=8)
    ones_clean = 0
    salt = 0
    background = 0
    for scene in generate_corpus(cfg, 40):
        clean = scene.clean.pixels.astype(bool)
        noisy = scene.frame.pixels.astype(bool)
        assert (clean & ~noisy).sum() == 0  # noise never clears a pixel
        ones_clean += clean.sum()
        salt += (noisy & ~clean).sum()
        background += (~clean).sum()
    assert 0.035 < salt / background < 0.065


def test_fragmentation_splits_objects_but_not_gt():
    cfg = SynthConfig(side_min=8, side_max=14, fragment_gap=2, seed=30)
    split_somewhere = False
    for scene in generate_corpus(cfg, 30):
        comps = ccl(scene.clean)
        if len(comps) > len(scene.gt):
            split_somewhere = True
        # stripes only remove pixels inside gt boxes
        outside = scene.clean.pixels.copy()
        for b in scene.gt:
            outside[b.r0:b.r1 + 1, b.c0:b.c1 + 1] = 0
        assert outside.sum() == 0
        # each fragment keeps at least 2 pixels of thickness
        for c in comps:
            assert min(c.bbox.height, c.bbox.width) >= 2
    assert split_somewhere


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(objects_min=0)
    with pytest.raises(ConfigError):
        SynthConfig(objects_min=5, objects_max=2)
    # a frame holds no more objects than pixels
    for bad in (320 * 240 + 1, 10**20):
        with pytest.raises(ConfigError, match="objects_max must be <="):
            SynthConfig(objects_max=bad)
    assert SynthConfig(objects_max=320 * 240).objects_max == 320 * 240
    with pytest.raises(ConfigError):
        SynthConfig(side_min=20, side_max=10)
    with pytest.raises(ConfigError):
        SynthConfig(width=16, height=16, side_min=6, side_max=20)
    with pytest.raises(ConfigError):
        SynthConfig(noise_density=1.5)
    with pytest.raises(ConfigError):
        SynthConfig(band_min=0)
    with pytest.raises(ConfigError):
        SynthConfig(fragment_gap=-1)
    with pytest.raises(ConfigError):
        SynthConfig(seed=-1)


def test_scene_dataclass_shape():
    s = generate_scene(SynthConfig(seed=0))
    assert isinstance(s, Scene)
    assert s.frame.pixels.shape == s.clean.pixels.shape == (240, 320)
