"""Scene generation's object reference: a validated ``Box`` per anchor, built
by a loop over (iy, ix), and a ``Box`` per generated object.

``harness.generate_scenes`` builds the anchor grid as one corner array and
the ground truths as one ``GroundTruthArrays``; the tests hold its arrays to
``generate_scenes``' boxes bit for bit, redrawn objects included.
"""

import math

import numpy as np

from hardet.geom import Box
from hardet.harness import ANCHOR_SCALE, CANVAS, SceneConfig

Scenes = list[tuple[tuple[Box, ...], tuple[int, ...]]]


def anchor_grid(cfg: SceneConfig) -> tuple[Box, ...]:
    n = int(CANVAS / cfg.anchor_spacing)
    s = ANCHOR_SCALE
    anchors = []
    for iy in range(n):
        cy = (iy + 0.5) * cfg.anchor_spacing
        for ix in range(n):
            cx = (ix + 0.5) * cfg.anchor_spacing
            anchors.append(Box(cx - s / 2, cy - s / 2, cx + s / 2, cy + s / 2))
    return tuple(anchors)


def generate_scenes(cfg: SceneConfig) -> tuple[tuple[Box, ...], Scenes]:
    """The anchors, and per scene its ground-truth boxes and classes:
    per object, a random anchor jittered in place, drawn again while the
    canvas clips it to nothing."""
    rng = np.random.default_rng(cfg.seed)
    anchors = anchor_grid(cfg)
    scenes = []
    for _ in range(cfg.num_scenes):
        count = int(rng.integers(cfg.objects_per_scene[0], cfg.objects_per_scene[1] + 1))
        boxes = []
        classes = []
        for _ in range(count):
            # a clipped extent of 0 or less, which Box would reject or accept
            # with no area, draws the anchor and jitters again
            x1 = y1 = x2 = y2 = 0.0
            while not (x2 > x1 and y2 > y1):
                base = anchors[int(rng.integers(len(anchors)))]
                cx, cy = base.center
                cx += float(rng.uniform(-cfg.jitter, cfg.jitter)) * base.width
                cy += float(rng.uniform(-cfg.jitter, cfg.jitter)) * base.height
                bw = base.width * math.exp(float(rng.uniform(-cfg.jitter, cfg.jitter)))
                bh = base.height * math.exp(float(rng.uniform(-cfg.jitter, cfg.jitter)))
                x1, y1 = max(0.0, cx - bw / 2), max(0.0, cy - bh / 2)
                x2, y2 = min(CANVAS, cx + bw / 2), min(CANVAS, cy + bh / 2)
            boxes.append(Box(x1, y1, x2, y2))
            classes.append(int(rng.integers(1, cfg.num_classes)))
        scenes.append((tuple(boxes), tuple(classes)))
    return anchors, scenes
