"""Set-up probe: import vocabport and replay one workload's loader calls, then exit.

    python perfbench/probe.py PLAN.json

PLAN.json is a list of [loader name, [file args...]]. For `load_aux_model`
and `load_word_vectors` the last argument is the target-vocabulary path,
which must have been loaded by an earlier `load_vocab` entry. Everything
loaded stays referenced until exit, as it does inside the CLI.
"""

import json
import sys


def main(plan_path: str) -> int:
    import vocabport as vp

    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    vocabs = {}
    keep = []
    for name, args in plan:
        if name == "load_vocab":
            vocabs[args[0]] = vp.load_vocab(args[0], vp.sniff_vocab_format(args[0]))
        elif name in ("load_aux_model", "load_word_vectors"):
            keep.append(getattr(vp, name)(*args[:-1], vocabs[args[-1]]))
        else:
            keep.append(getattr(vp, name)(*args))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
