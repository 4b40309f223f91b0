"""Write lambda9_sample.json: the base-5 classes the lambda9-plus4-sample
workload draws from, with their pruned term counts and exact partial sums.

    PYTHONPATH=src python3 perfbench/make_sample.py

The pool is the PAIRS pairs of dual classes with the fewest pruned terms;
the two classes of a pair have equal term counts and equal partial sums.
Each partial sum is lambda_plus4_direct over that one class (gamma times
its four-factor sum), the quantity the benchmark checks.
"""

import json
from pathlib import Path

from mbfcount import counting, layers, orbits

PAIRS = 3
OUT = Path(__file__).resolve().parent / "lambda9_sample.json"


def main() -> None:
    layer = layers.generate_layer(5)
    classes = orbits.classify(layer, 1)
    terms = [counting.plus4_pruned_term_count(layer, [c]) for c in classes]
    order = sorted(range(len(classes)), key=lambda i: (terms[i], classes[i].representative.bits))
    pairs = []
    for k in range(PAIRS):
        pair = []
        for i in order[2 * k: 2 * k + 2]:
            c = classes[i]
            partial = counting.lambda_plus4_direct(layer, [c], 1, strategy="pruned").value
            pair.append({"rep": c.representative.to_hex(), "gamma": c.gamma,
                         "terms": terms[i], "partial": str(partial)})
        if pair[0]["terms"] != pair[1]["terms"]:
            raise SystemExit(f"classes {pair} differ in term count; not a dual pair")
        pairs.append(pair)
    OUT.write_text(json.dumps({"base_n": 5, "pairs": pairs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
