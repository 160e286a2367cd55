#!/bin/sh
# Smoke test for cwdb_ctl: build a small database with the quickstart
# example, then exercise every read-only subcommand plus recover. The
# corruption_forensics example provides a directory with an incident
# dossier and a recovery provenance graph for the forensics subcommands.
set -e

QUICKSTART="$1"
CTL="$2"
FORENSICS="$3"
DIR=$(mktemp -d /dev/shm/cwdb_tool_smoke_XXXXXX)
trap 'rm -rf "$DIR"' EXIT

"$QUICKSTART" "$DIR/db" > /dev/null

"$CTL" info "$DIR/db" | grep -q "active checkpoint"
"$CTL" tables "$DIR/db" | grep -q "users"
"$CTL" check "$DIR/db" | grep -q "image layout     : ok"
"$CTL" logdump "$DIR/db" | grep -q "COMMIT_TXN"
"$CTL" logdump "$DIR/db" | grep -q "end of valid log"
"$CTL" recover "$DIR/db" readlog | grep -q "recovery complete"

# stats re-emits the metrics snapshot quickstart's Close() persisted,
# including the process gauges sampled at dump time.
"$CTL" stats "$DIR/db" | grep -q '"txn.commits"'
"$CTL" stats "$DIR/db" | grep -q '"txn.commit_latency_ns"'
"$CTL" stats "$DIR/db" | grep -q '"process.rss_bytes"'
"$CTL" stats "$DIR/db" | grep -q '"process.data_dir_bytes"'

# --per-shard renders one row per engine shard from the same snapshot.
"$CTL" stats "$DIR/db" --per-shard | grep -q "wal_appends"
"$CTL" stats "$DIR/db" --per-shard | grep -q "^0 "

# trace decodes the flight-recorder events of the same snapshot.
"$CTL" trace "$DIR/db" | grep -q "checkpoint"
"$CTL" trace "$DIR/db" | grep -q "group_commit_flush"

# scrub-map renders audit staleness from the same snapshot's gauges.
"$CTL" scrub-map "$DIR/db" | grep -q "shard"

# A clean database has no dossiers and a cleanly-marked black box.
"$CTL" incidents "$DIR/db" | grep -q "no incidents recorded"
"$CTL" postmortem "$DIR/db" | grep -q "clean shutdown; no crash recorded"

# A process killed at an armed crash point leaves an unclean black box;
# postmortem renders it cold, the next open rotates it and files a crash
# dossier, and postmortem then renders the rotated box + dossier episode.
CWDB_CRASHPOINT="wal.flush.fdatasync=abort" "$QUICKSTART" "$DIR/crashdb" \
  > /dev/null 2>&1 || true
"$CTL" postmortem "$DIR/crashdb" | grep -q "UNCLEAN"
"$CTL" postmortem "$DIR/crashdb" | grep -q "wal.flush.fdatasync"
"$CTL" recover "$DIR/crashdb" > /dev/null
"$CTL" postmortem "$DIR/crashdb" | grep -q "blackbox.prev.bin"
"$CTL" postmortem "$DIR/crashdb" | grep -q "crash dossier"
"$CTL" incidents "$DIR/crashdb" | grep -q "source=crash"

# The forensics walkthrough leaves an incident dossier and a recovery
# provenance graph behind; the forensics subcommands must decode both.
if [ -n "$FORENSICS" ]; then
  "$FORENSICS" "$DIR/fdb" > /dev/null
  "$CTL" incidents "$DIR/fdb" | grep -q "source=audit"
  "$CTL" incidents "$DIR/fdb" | grep -q "delta=0x"
  "$CTL" explain-recovery "$DIR/fdb" | grep -q "deleted transactions:"
  "$CTL" explain-recovery "$DIR/fdb" | grep -q "tainted by txn"
  "$CTL" explain-recovery "$DIR/fdb" --dot \
    | grep -q "digraph recovery_provenance"
fi

# Unknown command fails with usage.
if "$CTL" bogus "$DIR/db" 2> /dev/null; then
  echo "bogus subcommand should fail" >&2
  exit 1
fi
echo "tool smoke OK"
