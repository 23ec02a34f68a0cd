#!/usr/bin/env python3
"""Regenerate the pinned report files under tests/data/, one per built-in
fixture (``fixtures.FIXTURE_NAMES``).

Only for deliberate fixture or schema changes; the test suite compares
byte-for-byte against these files.
"""

import argparse
from pathlib import Path

from switchctrl import fixtures
from switchctrl.report import check_report, report_bytes


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="tests/data")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in fixtures.FIXTURE_NAMES:
        blob = report_bytes(check_report(fixtures.example_system(name)))
        path = out / f"report_{name.replace('-', '_')}.json"
        path.write_bytes(blob)
        print(f"wrote {path} ({len(blob)} bytes)")


if __name__ == "__main__":
    main()
