"""Scene generation's object reference: a validated ``Box`` per anchor, built
by a loop over (iy, ix, scale), and a ``Box`` per generated object.

``harness.generate_scenes`` builds the anchor grid as one corner array and
the ground truths as one ``GroundTruthArrays``; the tests hold its arrays to
``generate_scenes``' boxes bit for bit, and its errors to this one's.
"""

import math

import numpy as np

from hardet.geom import Box
from hardet.harness import SceneConfig

Scenes = list[tuple[tuple[Box, ...], tuple[int, ...]]]


def anchor_grid(cfg: SceneConfig) -> tuple[Box, ...]:
    w, h = cfg.canvas
    nx = int(w / cfg.anchor_spacing)
    ny = int(h / cfg.anchor_spacing)
    anchors = []
    for iy in range(ny):
        cy = (iy + 0.5) * cfg.anchor_spacing
        for ix in range(nx):
            cx = (ix + 0.5) * cfg.anchor_spacing
            for s in cfg.anchor_scales:
                anchors.append(Box(cx - s / 2, cy - s / 2, cx + s / 2, cy + s / 2))
    return tuple(anchors)


def generate_scenes(cfg: SceneConfig) -> tuple[tuple[Box, ...], Scenes]:
    """The anchors, and per scene its ground-truth boxes and classes:
    per object, a random anchor jittered in place."""
    rng = np.random.default_rng(cfg.seed)
    anchors = anchor_grid(cfg)
    w, h = cfg.canvas
    scenes = []
    for s in range(cfg.num_scenes):
        count = int(rng.integers(cfg.objects_per_scene[0], cfg.objects_per_scene[1] + 1))
        boxes = []
        classes = []
        for k in range(count):
            base = anchors[int(rng.integers(len(anchors)))]
            cx, cy = base.center
            cx += float(rng.uniform(-cfg.jitter, cfg.jitter)) * base.width
            cy += float(rng.uniform(-cfg.jitter, cfg.jitter)) * base.height
            bw = base.width * math.exp(float(rng.uniform(-cfg.jitter, cfg.jitter)))
            bh = base.height * math.exp(float(rng.uniform(-cfg.jitter, cfg.jitter)))
            x1, y1 = max(0.0, cx - bw / 2), max(0.0, cy - bh / 2)
            x2, y2 = min(w, cx + bw / 2), min(h, cy + bh / 2)
            # a clipped extent of 0 or less: Box would reject its corner order,
            # or accept a box of no area
            if not (x2 > x1 and y2 > y1):
                raise ValueError(
                    f"object {k} of scene {s} has no area on the canvas: {(x1, y1, x2, y2)}"
                )
            boxes.append(Box(x1, y1, x2, y2))
            classes.append(int(rng.integers(1, cfg.num_classes)))
        scenes.append((tuple(boxes), tuple(classes)))
    return anchors, scenes
