"""The golden record: the bits of a few short runs, pinned in tests/golden.json.

The record holds the runtime the bytes were made on (cli._runtime()) and,
as exact decimals or SHA-256 hex digests:

* a few-step pretrain of the README model: its losses, trained digest and
  validation perplexity;
* an n=4 weighted_softmax fine-tune of that base: its losses, trained and
  frozen digests and validation perplexity, its perplexity on a longer
  stream, and the SHA-256 of 32 logit rows decoded one token at a time;
* criterion 3's gradcheck error and criterion 7's perplexity ratio.

tests/test_golden.py reruns these and compares every value exactly where the
runtime matches the record's. A change that moves numbers on purpose
rewrites the file, so the diff shows what moved:

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from rwkvp import autograd as ag
from rwkvp import cli, evaluation, gradcheck, training
from rwkvp import model as m

PATH = Path(__file__).with_name("golden.json")
STEPS = 8               # training steps of each run (batch 2)
VAL_TOKENS = 256        # validation tokens scored after each run
STREAM_TOKENS = 1024    # the fine-tuned model's perplexity stream
DECODE_TOKENS = 32


def _runs(cfg, split) -> dict:
    train_tokens, val_tokens = split
    val = val_tokens[:VAL_TOKENS]
    tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=2e-4, mini_epochs=1,
                              contexts_per_mini_epoch=2 * STEPS,
                              context_length=cfg.context_length, seed=0)
    store, mask, log = training.pretrain_base(cfg, train_tokens, val, tc)
    pretrain = {"losses": log.losses(), "digest": store.digest(), "val_ppl": log.val_ppl[-1][1]}

    ft_tc = training.TrainConfig(batch_size=2, lr_max=1e-2, lr_min=1e-3, mini_epochs=1,
                                 contexts_per_mini_epoch=2 * STEPS,
                                 context_length=cfg.context_length, seed=1)
    ft_cfg, ft_store, ft_mask, ft_log = training.finetune_perspectives(
        store, cfg, 4, "weighted_softmax", train_tokens, val, ft_tc)
    model = m.Model(ft_cfg, ft_store, ft_mask)
    rows = []
    with ag.no_grad():
        states = model.init_states()
        for t in range(DECODE_TOKENS):
            logits, _, states = model.forward(val_tokens[t:t + 1], states)
            rows.append(logits.data[0])
    finetune = {"losses": ft_log.losses(),
                "trained_digest": ft_store.digest(ft_mask.trainable_names()),
                "frozen_digest": ft_store.digest(ft_mask.frozen_names()),
                "val_ppl": ft_log.val_ppl[-1][1],
                "stream_ppl": evaluation.perplexity(model, val_tokens[:STREAM_TOKENS]),
                "decode_sha256": hashlib.sha256(np.stack(rows).tobytes()).hexdigest()}
    return {"pretrain": pretrain, "finetune": finetune}


def record(cfg, split, criterion_03, criterion_07) -> dict:
    """The golden record of this program on this machine. criterion_03 is
    criterion 3's GradCheckResult, criterion_07 its (baseline, fine-tuned
    perplexities), as the test session's fixtures hold them."""
    baseline, finetuned = criterion_07
    return {"runtime": cli._runtime(), **_runs(cfg, split),
            "criterion_03_max_rel_error": float(criterion_03.max_rel_error),
            "criterion_07_ratio": float(np.mean(finetuned)) / baseline}


def main() -> None:
    import conftest

    cfg, split = conftest.readme_config(), conftest.corpus_split()
    base = conftest.pretrain_shared_base(cfg, split)
    rec = record(cfg, split, gradcheck.model_gradcheck(seed=0),
                 conftest.finetune_win(cfg, base, split))
    PATH.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
