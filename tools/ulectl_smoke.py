#!/usr/bin/env python3
"""ulectl smoke test (registered with ctest).

Round-trips the CLI surface end to end on a temp directory:

  archive (TPC-H dump -> ULE-C1 container) -> inspect -> verify ->
  restore (native, then one table selectively), then the same through a browsable directory reel,
  an interrupted-spool recovery via `ulectl resume` and an emulated
  restore of the golden archive in tests/golden/, and checks the
  restored dumps are byte-identical to the archived ones.

With --sharded, runs the reel-set loop instead: archive sharded across
ULE-C1 reels under a ULE-R1 catalog at --threads 4, inspect/verify the
catalog, restore it whole and one table of it, and check a deleted reel
is reported by name.

With --scrub, runs the fleet loop: 20 mixed archives (ULE-P1 parity
reel sets and standalone containers) with injected whole-reel damage,
swept by `ulectl scrub` with a checkpointed, resumable journal. Checks
the verify/scrub exit-code contract (0 healthy, 1 repairable, 2 data
loss), that --repair restores a damaged archive to a byte-identical
round trip, and that the JSON health report matches the injected
faults.

Usage: ulectl_smoke.py [--sharded | --scrub] /path/to/ulectl
"""

import filecmp
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile


def run(argv):
    print("+", " ".join(argv), flush=True)
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    print(proc.stdout, end="", flush=True)
    if proc.returncode != 0:
        sys.exit(f"FAILED (exit {proc.returncode}): {' '.join(argv)}")
    return proc.stdout


def run_expect_failure(argv, needles):
    """The command must fail, and its diagnostics must name the damage."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode == 0:
        sys.exit(f"expected failure, got success: {' '.join(argv)}")
    for needle in needles:
        if needle not in proc.stdout:
            sys.exit(f"diagnostic missing {needle!r} in: {proc.stdout}")
    print(f"rejected as expected: {proc.stdout.strip()}")
    return proc.stdout


def restore_orders(ulectl, archive, dump, out, threads):
    """Whole-table selective restore: a byte-exact slice of the dump."""
    printed = run([ulectl, "restore", "--in", archive, "--table", "orders",
                   "--out", out, "--threads", threads])
    if "selective path" not in printed:
        sys.exit("table restore did not report the selective path")
    with open(dump, "rb") as f:
        whole = f.read()
    with open(out, "rb") as f:
        table = f.read()
    if not table or table not in whole:
        sys.exit("table restore is not a byte-exact slice of the dump")


def smoke_single(ulectl, td):
    reel = os.path.join(td, "reel.ulec")
    dump = os.path.join(td, "dump.sql")
    restored = os.path.join(td, "restored.sql")

    # A tiny deterministic TPC-H archive; --dump-out keeps the input
    # text so the round trip can be diffed.
    run([ulectl, "archive", "--tpch", "0.0002", "--out", reel,
         "--dump-out", dump, "--threads", "2"])
    out = run([ulectl, "inspect", reel])
    for needle in ("ULE-C1", "data frames", "bootstrap         present"):
        if needle not in out:
            sys.exit(f"inspect output missing {needle!r}")
    run([ulectl, "verify", reel])
    run([ulectl, "restore", "--in", reel, "--out", restored,
         "--threads", "2"])
    if not filecmp.cmp(dump, restored, shallow=False):
        sys.exit("container round trip: restored dump differs")
    restore_orders(ulectl, reel, dump, os.path.join(td, "orders.sql"), "2")

    # The same loop through the human-browsable directory backend.
    reel_dir = os.path.join(td, "reel_dir")
    restored2 = os.path.join(td, "restored2.sql")
    run([ulectl, "archive", "--in", dump, "--out", reel_dir, "--dir",
         "--pbm", "--threads", "2"])
    run([ulectl, "inspect", reel_dir])
    run([ulectl, "verify", reel_dir])
    run([ulectl, "restore", "--in", reel_dir, "--out", restored2])
    if not filecmp.cmp(dump, restored2, shallow=False):
        sys.exit("directory round trip: restored dump differs")

    # Without a record index there is no selective path: restore --table
    # says why and what to do instead, and writes nothing.
    unindexed = os.path.join(td, "unindexed.ulec")
    run([ulectl, "archive", "--in", dump, "--out", unindexed, "--no-index",
         "--threads", "2"])
    orders = os.path.join(td, "unindexed_orders.sql")
    run_expect_failure([ulectl, "restore", "--in", unindexed, "--table",
                        "orders", "--out", orders],
                       ["--no-index", "restore the whole dump"])
    if os.path.exists(orders):
        sys.exit("refused table restore still created its output")

    # Interrupted spool: strip the index + footer (what a writer that
    # died before Finish leaves behind), recover it with `resume`, and
    # the resealed reel must verify and restore byte-identically.
    spool = os.path.join(td, "spool.ulec")
    with open(reel, "rb") as f:
        data = f.read()
    (index_offset,) = struct.unpack("<Q", data[-20:-12])
    with open(spool, "wb") as f:
        f.write(data[:index_offset])
    run_expect_failure([ulectl, "verify", spool], ["truncated"])
    out = run([ulectl, "resume", spool])
    if "sealed" not in out:
        sys.exit("resume did not reseal the spool")
    run([ulectl, "verify", spool])
    restored3 = os.path.join(td, "restored3.sql")
    run([ulectl, "restore", "--in", spool, "--out", restored3,
         "--threads", "2"])
    if not filecmp.cmp(dump, restored3, shallow=False):
        sys.exit("resumed spool: restored dump differs")
    out = run([ulectl, "resume", spool])  # idempotent on a sealed reel
    if "nothing to resume" not in out:
        sys.exit("resume on a sealed reel should be a no-op")

    # The future user's path on the committed golden archive: restore
    # through its own Bootstrap, with the archived decoders' VeRISC
    # steps reported apart.
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "..", "tests", "golden")
    restored4 = os.path.join(td, "restored4.sql")
    out = run([ulectl, "restore", "--emulated", "--in",
               os.path.join(golden, "c1_v1.ulec"), "--out", restored4])
    for needle in ("MODecode steps", "DBDecode steps"):
        if needle not in out:
            sys.exit(f"emulated restore output missing {needle!r}")
    if not filecmp.cmp(os.path.join(golden, "c1_v1.sql"), restored4,
                       shallow=False):
        sys.exit("golden emulated restore: restored dump differs")

    # A grid larger than the archived MODecode decodes is refused before
    # the output is created: its own Bootstrap could not restore it.
    too_big = os.path.join(td, "too_big.ulec")
    run_expect_failure([ulectl, "archive", "--in", dump, "--out", too_big,
                        "--data-side", "963"], ["963", "962"])
    if os.path.exists(too_big):
        sys.exit("refused archive still created its output")

    # So is a DBCoder scheme the archived DBDecode does not decode.
    columnar = os.path.join(td, "columnar.ulec")
    run_expect_failure([ulectl, "archive", "--in", dump, "--out", columnar,
                        "--scheme", "columnar"], ["columnar", "DBDecode"])
    if os.path.exists(columnar):
        sys.exit("refused columnar archive still created its output")
    # The options are refused before any dump is generated.
    printed = run_expect_failure([ulectl, "archive", "--tpch", "0.0001",
                                  "--out", columnar, "--scheme", "columnar"],
                                 ["columnar", "DBDecode"])
    if "generated TPC-H dump" in printed:
        sys.exit("refused --tpch archive generated its dump first")
    if os.path.exists(columnar):
        sys.exit("refused --tpch columnar archive still created its output")

    # Corruption must fail loudly — and the diagnostic must say *which*
    # record died and at what byte offset, so the operator knows which
    # frame of which reel to rescan.
    with open(reel, "r+b") as f:
        f.seek(4000)
        byte = f.read(1)
        f.seek(4000)
        f.write(bytes([byte[0] ^ 0xFF]))
    run_expect_failure([ulectl, "verify", reel],
                       ["record ", "offset "])


def smoke_sharded(ulectl, td):
    catalog = os.path.join(td, "set.uler")
    dump = os.path.join(td, "dump.sql")
    restored = os.path.join(td, "restored.sql")

    # One archive sharded across many reels, written and restored with a
    # real thread fan-out.
    run([ulectl, "archive", "--tpch", "0.0002", "--out", catalog,
         "--dump-out", dump, "--threads", "4", "--shard-frames", "64"])
    out = run([ulectl, "inspect", catalog])
    for needle in ("ULE-R1", "reels", "set-000.ulec", "archive id"):
        if needle not in out:
            sys.exit(f"inspect output missing {needle!r}")
    if "(1 readable)" in out:
        sys.exit("sharding produced a single reel; expected several")
    run([ulectl, "verify", catalog])
    run([ulectl, "restore", "--in", catalog, "--out", restored,
         "--threads", "4"])
    if not filecmp.cmp(dump, restored, shallow=False):
        sys.exit("sharded round trip: restored dump differs")
    restore_orders(ulectl, catalog, dump, os.path.join(td, "orders.sql"),
                   "4")

    # A deleted reel must be called out by name — inspect still works,
    # verify refuses.
    os.remove(os.path.join(td, "set-001.ulec"))
    out = run([ulectl, "inspect", catalog])
    if "set-001.ulec" not in out or "readable" not in out:
        sys.exit("inspect does not report the damaged reel")
    run_expect_failure([ulectl, "verify", catalog],
                       ["reel 1", "set-001.ulec"])


def run_expect_exit(argv, code, needles=()):
    """The command must exit with exactly `code` (the 0/1/2 contract)."""
    print("+", " ".join(argv), flush=True)
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    print(proc.stdout, end="", flush=True)
    if proc.returncode != code:
        sys.exit(f"expected exit {code}, got {proc.returncode}: "
                 f"{' '.join(argv)}")
    for needle in needles:
        if needle not in proc.stdout:
            sys.exit(f"output missing {needle!r} in: {proc.stdout}")
    return proc.stdout


def flip_byte(path, offset):
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))


def smoke_scrub(ulectl, td):
    work = os.path.join(td, "work")
    fleet = os.path.join(td, "fleet")
    os.makedirs(work)
    os.makedirs(fleet)
    dump = os.path.join(td, "dump.sql")

    # One real parity reel set and one standalone container, then a fleet
    # of copies — 20 archives without 20 TPC-H runs.
    base_set = os.path.join(work, "base")
    os.makedirs(base_set)
    run([ulectl, "archive", "--tpch", "0.0002", "--out",
         os.path.join(base_set, "arch.uler"), "--dump-out", dump,
         "--threads", "4", "--shard-frames", "32", "--parity", "2"])
    out = run([ulectl, "inspect", os.path.join(base_set, "arch.uler")])
    for needle in ("ULE-P1", "parity version", "arch-p00.ulep"):
        if needle not in out:
            sys.exit(f"inspect output missing {needle!r}")
    base_box = os.path.join(work, "base.ulec")
    run([ulectl, "archive", "--in", dump, "--out", base_box,
         "--threads", "4"])

    reels = sorted(f for f in os.listdir(base_set)
                   if f.endswith(".ulec"))
    if len(reels) < 4:
        sys.exit(f"expected >= 4 data reels for the fault matrix, "
                 f"got {len(reels)}")
    for i in range(12):
        shutil.copytree(base_set, os.path.join(fleet, f"set{i:02d}"))
    for i in range(8):
        shutil.copy(base_box, os.path.join(fleet, f"box{i}.ulec"))

    # Injected faults (m = 2 parity reels per set):
    #   set00..set03  one reel deleted            -> repairable
    #   set04..set05  two reels deleted           -> repairable
    #   set06         silent payload flip         -> repairable
    #   set07         reel truncated to half      -> repairable
    #   set08         three reels deleted         -> data loss
    #   box0          silent payload flip         -> data loss (no parity)
    #   set09..set11, box1..box7                  -> healthy
    for i in range(4):
        os.remove(os.path.join(fleet, f"set{i:02d}", reels[0]))
    for i in (4, 5):
        os.remove(os.path.join(fleet, f"set{i:02d}", reels[0]))
        os.remove(os.path.join(fleet, f"set{i:02d}", reels[2]))
    flip_byte(os.path.join(fleet, "set06", reels[1]), 4000)
    trunc = os.path.join(fleet, "set07", reels[1])
    os.truncate(trunc, os.path.getsize(trunc) // 2)
    for name in reels[:3]:
        os.remove(os.path.join(fleet, "set08", name))
    flip_byte(os.path.join(fleet, "box0.ulec"), 4000)

    # The verify exit-code contract, one archive of each class. A damaged
    # archive must never report success (this used to be a silent skip).
    run([ulectl, "verify", os.path.join(fleet, "set09", "arch.uler")])
    run_expect_exit([ulectl, "verify",
                     os.path.join(fleet, "set00", "arch.uler")], 1,
                    ["repairable from parity"])
    run_expect_exit([ulectl, "verify",
                     os.path.join(fleet, "set08", "arch.uler")], 2)
    run_expect_exit([ulectl, "verify", os.path.join(fleet, "box0.ulec")], 2)

    # Dry sweep, interrupted after 7 archives and resumed: the final
    # report must equal an uninterrupted sweep's, archive for archive.
    ck = os.path.join(td, "checkpoint.tsv")
    rep_resumed = os.path.join(td, "resumed.json")
    rep_plain = os.path.join(td, "plain.json")
    run_expect_exit([ulectl, "scrub", fleet, "--checkpoint", ck,
                     "--max-archives", "7"], 2)
    run_expect_exit([ulectl, "scrub", fleet, "--checkpoint", ck,
                     "--report", rep_resumed], 2, ["resumed from checkpoint"])
    run_expect_exit([ulectl, "scrub", fleet, "--report", rep_plain], 2)
    with open(rep_resumed) as f:
        resumed = json.load(f)
    with open(rep_plain) as f:
        plain = json.load(f)
    if resumed != plain:
        sys.exit("resumed fleet report differs from uninterrupted sweep")
    if resumed["fleet"] != {"archives": 20, "healthy": 10, "repaired": 0,
                            "repairable": 8, "data_loss": 2, "errors": 0,
                            "repaired_bytes": 0}:
        sys.exit(f"dry-sweep tallies wrong: {resumed['fleet']}")

    # Repair sweep: every repairable archive is rewritten from parity;
    # the two lost ones stay lost (exit 2).
    rep_fix = os.path.join(td, "repair.json")
    run_expect_exit([ulectl, "scrub", fleet, "--repair",
                     "--report", rep_fix], 2)
    with open(rep_fix) as f:
        fixed = json.load(f)
    tallies = fixed["fleet"]
    if (tallies["repaired"], tallies["repairable"], tallies["healthy"],
            tallies["data_loss"]) != (8, 0, 10, 2):
        sys.exit(f"repair-sweep tallies wrong: {tallies}")
    if tallies["repaired_bytes"] <= 0:
        sys.exit("repair reported no bytes rewritten")

    # Repaired archives verify clean and round-trip byte-identically.
    run([ulectl, "verify", os.path.join(fleet, "set04", "arch.uler")])
    restored = os.path.join(td, "restored.sql")
    run([ulectl, "restore", "--in",
         os.path.join(fleet, "set04", "arch.uler"), "--out", restored,
         "--threads", "4"])
    if not filecmp.cmp(dump, restored, shallow=False):
        sys.exit("repaired archive: restored dump differs")

    # A follow-up sweep finds nothing left to repair.
    out = run_expect_exit([ulectl, "scrub", fleet], 2)
    if "repairable        0" not in out:
        sys.exit("repairable damage survived the repair sweep")


def main():
    args = sys.argv[1:]
    sharded = "--sharded" in args
    scrub = "--scrub" in args
    args = [a for a in args if a not in ("--sharded", "--scrub")]
    if len(args) != 1 or (sharded and scrub):
        sys.exit(f"usage: {sys.argv[0]} [--sharded | --scrub] "
                 "/path/to/ulectl")
    ulectl = args[0]
    with tempfile.TemporaryDirectory(prefix="ulectl_smoke_") as td:
        if scrub:
            smoke_scrub(ulectl, td)
        elif sharded:
            smoke_sharded(ulectl, td)
        else:
            smoke_single(ulectl, td)
    mode = "scrub " if scrub else "sharded " if sharded else ""
    print(f"ulectl {mode}smoke test OK")


if __name__ == "__main__":
    main()
