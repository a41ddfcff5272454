"""Anchor matching's per-scene reference: one IoU matrix, one argmax pass and
one forced pass per scene, and a scalar ``encode`` per positive.

``harness._match_scene_set`` matches every scene of a scene set at once; the
tests hold its arrays to ``match_scene_set``'s bit for bit, and its memory
peak at the ``MAX_MATCH_PAIRS`` limit to this one's.
"""

import numpy as np

from hardet.geom import Box, corners, encode, iou_matrix
from hardet.harness import Matching, MatchResult, Scene, SceneSet


def match_anchors(scene: Scene, anchors: np.ndarray, threshold: float) -> MatchResult:
    """Max-IoU assignment of one scene to (N, 4) anchor corners, with a
    forced best anchor per ground truth."""
    if not len(anchors):
        raise ValueError("match_anchors needs a non-empty anchor set")
    n, g = len(anchors), len(scene.gt_boxes)
    assigned: dict[int, int] = {}
    if g > 0:
        mat = iou_matrix(anchors, scene.gt_boxes)
        best_gt = np.argmax(mat, axis=1)
        best_iou = mat[np.arange(n), best_gt]
        for i in np.flatnonzero(best_iou >= threshold):
            assigned[int(i)] = int(best_gt[i])
        # forced pass: every GT claims its best still-unforced anchor (ties to
        # the lowest index), so the positive count never drops below the GT count
        unforced = np.ones(n, dtype=bool)
        for j in range(min(g, n)):
            i = int(np.argmax(np.where(unforced, mat[:, j], -np.inf)))
            unforced[i] = False
            assigned[i] = j
    pos = sorted(assigned)
    neg = [i for i in range(n) if i not in assigned]
    return MatchResult(
        pos_anchor=tuple(pos),
        pos_gt=tuple(assigned[i] for i in pos),
        neg_anchor=tuple(neg),
    )


def match_scene_set(scene_set: SceneSet) -> Matching:
    pos_flat: list[int] = []
    neg_flat: list[int] = []
    pairs: list[tuple[Box, Box, int]] = []
    a = scene_set.anchors_per_scene
    for s_idx, scene in enumerate(scene_set.scenes):
        m = match_anchors(scene, scene_set.anchors, scene_set.config.positive_iou_threshold)
        pos_flat.extend(s_idx * a + i for i in m.pos_anchor)
        neg_flat.extend(s_idx * a + i for i in m.neg_anchor)
        pairs.extend(
            (
                Box.from_array(scene_set.anchors[i]),
                Box.from_array(scene.gt_boxes[g]),
                int(scene.gt_classes[g]),
            )
            for i, g in zip(m.pos_anchor, m.pos_gt)
        )
    return Matching(
        pos_flat=np.array(pos_flat, dtype=int),
        neg_flat=np.array(neg_flat, dtype=int),
        anchors=corners([anchor for anchor, _, _ in pairs]),
        gt=corners([box for _, box, _ in pairs]),
        gt_class=np.array([c for _, _, c in pairs], dtype=int),
        # encode validates both boxes, once, for every loop that uses them
        d_hat=np.array([encode(box, anchor).as_array() for anchor, box, _ in pairs]).reshape(-1, 4),
    )
