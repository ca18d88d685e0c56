#!/usr/bin/env python3
"""The benchmark's own test.

    python3 toolbench/test_bench.py           # output checks + seed sweep
    python3 toolbench/test_bench.py --quick   # output checks only

The output checks feed tampered tool outputs to run.py's parsers and assert
each one is counted as a failure. The seed sweep runs every workload at
short length (--seconds 1) on five seeds, including 972692144, and asserts
that every check passes on each.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = [1, 3, 5, 11, 972692144]


def scan_text(windows, benign, malicious):
    pct = 100.0 * malicious / windows
    verdict = "suspicious — camouflaged activity likely" if pct > 25 else "clean"
    return (f"mixed.log: {windows} windows scanned, {benign} benign, {malicious} "
            f"malicious ({pct:.1f}% flagged, threshold 25.0%)\nVERDICT: {verdict}\n")


def serve_text(sessions, online=None, ingested=None, processed=None):
    """A leaps-serve --json output: sessions = [(windows, malicious)]."""
    lines = []
    for i, (windows, malicious) in enumerate(sessions):
        lines.append(f"session replay-{i}:{1000 + i} log{i}.log profile=default "
                     f"events={10 * windows} windows={windows} malicious={malicious} "
                     f"({100.0 * malicious / windows:.1f}%) SUSPICIOUS")
    if online is not None:
        lines.append("online: cycles=%d failures=%d promotions=%d rollbacks=%d" % online)
    events = 10 * sum(w for w, _ in sessions)
    ingested = events if ingested is None else ingested
    processed = events if processed is None else processed
    lines.append(json.dumps({"events": {
        "ingested": ingested, "processed": processed, "dropped": 0, "rejected": 0,
        "quarantined": 0, "failed": 0, "shed": 0}}, separators=(",", ":")))
    lines.append(f"replayed {processed} events over {len(sessions)} sessions")
    return "\n".join(lines) + "\n"


class OutputChecks(unittest.TestCase):
    SCAN = (15000, 6820, 8180)
    SESSIONS = [(20344, 10366), (20344, 9000), (20344, 9100), (20344, 11000)]

    def test_clean_scan_passes(self):
        self.assertEqual(run.check_scan(3, scan_text(*self.SCAN), self.SCAN),
                         (15000, 0, []))

    def test_flipped_verdict_count_fails(self):
        attempted, failed, problems = run.check_scan(
            3, scan_text(15000, 6821, 8179), self.SCAN)
        self.assertEqual((attempted, failed), (15000, 1))
        self.assertTrue(problems)

    def test_unexpected_exit_fails_every_window(self):
        self.assertEqual(run.check_scan(0, scan_text(*self.SCAN), self.SCAN)[:2],
                         (15000, 15000))
        self.assertEqual(run.check_serve(0, serve_text(self.SESSIONS),
                                         self.SESSIONS, False)[:2], (81376, 81376))

    def test_unparsed_scan_line_fails(self):
        self.assertEqual(run.check_scan(3, "scanned nothing\n", self.SCAN)[:2],
                         (15000, 15000))

    def test_clean_serve_passes(self):
        self.assertEqual(run.check_serve(3, serve_text(self.SESSIONS),
                                         self.SESSIONS, False), (81376, 0, []))

    def test_flipped_session_verdict_fails(self):
        tampered = [(20344, 10367)] + self.SESSIONS[1:]
        attempted, failed, _ = run.check_serve(3, serve_text(tampered),
                                               self.SESSIONS, False)
        self.assertEqual((attempted, failed), (81376, 1))

    def test_broken_accounting_identity_fails(self):
        events = 10 * sum(w for w, _ in self.SESSIONS)
        text = serve_text(self.SESSIONS, processed=events - 1)
        attempted, failed, problems = run.check_serve(3, text, self.SESSIONS, False)
        self.assertEqual(failed, attempted)
        self.assertIn("ingested", problems[0])

    def test_missing_report_fails(self):
        text = "".join(line for line in serve_text(self.SESSIONS).splitlines(True)
                       if not line.startswith("{"))
        self.assertEqual(run.check_serve(3, text, self.SESSIONS, False)[:2],
                         (81376, 81376))

    def test_learn_rollback_fails(self):
        expect = [(w, None) for w, _ in self.SESSIONS]
        ok = serve_text(self.SESSIONS, online=(2, 0, 2, 0))
        self.assertEqual(run.check_serve(3, ok, expect, True)[1], 0)
        rolled_back = serve_text(self.SESSIONS, online=(2, 0, 1, 1))
        attempted, failed, problems = run.check_serve(3, rolled_back, expect, True)
        self.assertEqual(failed, attempted)
        self.assertIn("rollbacks", problems[0])


class SeedSweep(unittest.TestCase):
    """Every workload's checks hold on every seed (traced runs do all the
    untraced run's checks plus the in-process ones)."""

    def bench(self, workload, seed, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        return result

    def test_every_workload_on_every_seed(self):
        for workload in ("scan-text", "serve-replay", "serve-learn"):
            self.bench(workload, SEEDS[0], 0)
            for seed in SEEDS:
                with self.subTest(workload=workload, seed=seed):
                    self.bench(workload, seed, 1)


if __name__ == "__main__":
    if "--quick" in sys.argv:
        sys.argv.remove("--quick")
        sys.argv.append("OutputChecks")
    unittest.main()
