#!/usr/bin/env python3
"""Compare two survey.json files byte for byte.

Usage: survey_cmp.py BASE HEAD

Exits 0 only if the two files are byte-identical. Otherwise it names what
differs, then exits 1: every experiment id whose object differs (or that
only one file has), and every other top-level key whose value differs.
"""

import json
import sys


def main(base_path, head_path):
    with open(base_path, "rb") as f:
        base_bytes = f.read()
    with open(head_path, "rb") as f:
        head_bytes = f.read()
    if base_bytes == head_bytes:
        return 0
    print(f"{base_path} and {head_path} differ")
    base, head = json.loads(base_bytes), json.loads(head_bytes)
    found = False
    for key in sorted(set(base) | set(head)):
        if key != "experiments" and base.get(key) != head.get(key):
            print(f"  top-level key: {key}")
            found = True
    base_exps = {e["id"]: e for e in base.get("experiments", [])}
    head_exps = {e["id"]: e for e in head.get("experiments", [])}
    for exp_id in list(base_exps) + [i for i in head_exps if i not in base_exps]:
        if base_exps.get(exp_id) != head_exps.get(exp_id):
            print(f"  experiment id: {exp_id}")
            found = True
    if not found:
        print("  no object differs: the order or the formatting does")
    return 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    sys.exit(main(sys.argv[1], sys.argv[2]))
