"""Regenerate the committed control checkpoint.

The serving workloads load ``control.ckpt`` so their numbers never come from
``init_params`` and a change to the training code cannot shift them.  The
checkpoint is trained at the control configuration: the vocab-20 planted
corpus (600 tasks, seed 0), the first 500 samples, learning rate 1e-2,
20 epochs, seed 0.  Run from the repository root:

    python3 perfbench/make_checkpoint.py

then update ``CHECKPOINT_SHA256`` in ``perfbench/common.py`` if the bytes
changed.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from opflow import (  # noqa: E402
    TrainConfig,
    generate_synthetic_corpus,
    mean_edge_f1,
    save_checkpoint,
    train,
)


def main() -> int:
    corpus = generate_synthetic_corpus(vocab_size=20, n_tasks=600, seed=0)
    config = TrainConfig(learning_rate=1e-2, epochs=20, seed=0)
    result = train(corpus.graph, list(corpus.samples[:500]), config)
    out = HERE / "control.ckpt"
    save_checkpoint(out, result.params, seed=config.seed)
    f1 = mean_edge_f1(corpus.graph, result.params, corpus.samples[500:])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    print(f"wrote {out.name}: {out.stat().st_size} bytes, sha256 {digest}, held-out edge-F1 {f1:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
