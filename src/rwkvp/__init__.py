"""Multi-perspective RWKV: a desk-scale RWKV-v4 with n parallel temporal views.

Pure numpy. The package is organized as:

  autograd      reverse-mode tape over numpy arrays, freeze-aware
  wkv           the log-stabilized WKV recurrence (step + differentiable sequence)
  params        named parameter store with a freeze mask
  model         RWKV-v4 blocks, config, init, analytic parameter counts, the Model
                bundle (a base's Model.forward is the n=1 reference)
  perspectives  n temporal views sharing all projection weights
  aggregation   average / transformer-like / learned softmax-weighted heads
  training      Adam, LR schedule, noise injection, pretrain + frozen-base finetune
  evaluation    perplexity, parameter-count report, ablations, traces
  tokenizer     byte-level vocab 0..255; VOCAB_SIZE 257 keeps an id no text maps to,
                since the vocabulary's size fixes every init draw
  corpus        corpus loading and seeded context sampling
  checkpoint    manifest + binary payload checkpoint format
  synth         deterministic long-range-copy corpus generator
  cli           operator commands (pretrain / finetune / eval / ablate / ...)
"""

from rwkvp.model import ModelConfig, Model

__version__ = "0.1.0"

__all__ = ["ModelConfig", "Model", "__version__"]
