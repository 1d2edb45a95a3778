"""Time one cold set-up of both entry points in a fresh interpreter and
print the seconds:

    python3 setup_probe.py SRC MODEL TRAIN DEV SEED

That is the package import, the parse set-up (load_checkpoint +
CompiledRules) and the train set-up (Treebank.load of train and dev +
init_state).
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import ordercky.cli  # noqa: E402,F401  (the import is part of what is timed)
from ordercky.decoder import CompiledRules  # noqa: E402
from ordercky.trainer import TrainConfig, init_state, load_checkpoint  # noqa: E402
from ordercky.trees import Treebank  # noqa: E402

model, grammar, rules, _ = load_checkpoint(sys.argv[2])
CompiledRules(model.labels, grammar, rules)
train = Treebank.load(sys.argv[3])
Treebank.load(sys.argv[4])
init_state(train, TrainConfig(seed=int(sys.argv[5])))
print(time.perf_counter() - start)
