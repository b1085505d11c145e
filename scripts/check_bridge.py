#!/usr/bin/env python3
"""Drive `chimera fleet` over its JSONL front end and check the answers.

Usage:
  check_bridge.py --script               print the input script
  check_bridge.py ANSWERS.jsonl          check the fleet's answers to it

The script mixes requests with ids, `cmd:health`, `cmd:stats`, an
unknown `cmd`, malformed JSON, and a final request without a trailing
newline.  A fleet is a drop-in replacement for a single worker, so the
check asserts:

  * exactly one answer per input line, every id answered;
  * requests and control lines answer `ok: true`;
  * the two error lines carry the serve loop's envelope: `field: "json"`
    for malformed JSON, `field: "cmd"` and "unknown cmd" for an unknown
    command, both `code: "invalid_request"`.

CI pipes the script into the fleet:

  check_bridge.py --script | chimera fleet -n 2 > bridge.jsonl
  check_bridge.py bridge.jsonl
"""

import json
import sys

SCRIPT = [
    '{"workload": "G2", "arch": "cpu", "id": "r1"}',
    '{"workload": "G2", "arch": "cpu", "batch": 2, "id": "r2"}',
    '{"cmd": "health", "id": "h"}',
    '{"cmd": "stats", "id": "s"}',
    '{"cmd": "nope", "id": "u"}',
    "{not json",
    '{"workload": "G2", "arch": "cpu", "batch": 3, "id": "last"}',
]

OK_IDS = ["r1", "r2", "h", "s", "last"]


def fail(msg):
    print(f"check_bridge: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_error(tag, answer, field):
    if answer.get("ok") is not False:
        fail(f"{tag}: expected ok false, got {answer}")
    if answer.get("code") != "invalid_request":
        fail(f"{tag}: code {answer.get('code')!r}, want 'invalid_request'")
    if answer.get("field") != field:
        fail(f"{tag}: field {answer.get('field')!r}, want {field!r}")


def main():
    if sys.argv[1:] == ["--script"]:
        # No newline after the last line: the fleet must answer it anyway.
        sys.stdout.write("\n".join(SCRIPT))
        return
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} --script | ANSWERS.jsonl")
    with open(sys.argv[1]) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    try:
        answers = [json.loads(line) for line in lines]
    except json.JSONDecodeError as e:
        fail(f"unparseable answer line: {e}")
    if len(answers) != len(SCRIPT):
        fail(f"{len(answers)} answers to {len(SCRIPT)} lines")

    by_id = {}
    anonymous = []
    for a in answers:
        if "id" in a:
            if a["id"] in by_id:
                fail(f"id {a['id']!r} answered twice")
            by_id[a["id"]] = a
        else:
            anonymous.append(a)
    want = sorted(OK_IDS + ["u"])
    if sorted(by_id) != want:
        fail(f"answered ids {sorted(by_id)}, want {want}")

    for id_ in OK_IDS:
        if by_id[id_].get("ok") is not True:
            fail(f"{id_}: expected ok true, got {by_id[id_]}")
    if by_id["s"].get("workers") != 2 or by_id["h"].get("workers") != 2:
        fail("stats and health must answer fleet-wide (workers = 2)")

    check_error("unknown cmd", by_id["u"], "cmd")
    if "unknown cmd" not in by_id["u"].get("error", ""):
        fail(f"unknown cmd: error {by_id['u'].get('error')!r}")
    if len(anonymous) != 1:
        fail(f"{len(anonymous)} answers without an id, want 1")
    check_error("malformed JSON", anonymous[0], "json")
    print(f"check_bridge: OK ({len(answers)} answers)")


if __name__ == "__main__":
    main()
