#!/bin/sh
# Command-line contract of the check tools at tiny sizes: a clean run
# exits 0, bad input exits 2, a seeded bug exits 1 and writes a
# reproducer that replays to 1, and a soak spec replays clean.
#
# Usage: tools_smoke.sh <directory holding the tool binaries>
# Scratch files go to ./tools_smoke_out.

T=$1
OUT=tools_smoke_out
rm -rf "$OUT" && mkdir -p "$OUT" || exit 1
fails=0

# expect <status> <command...>
expect() {
    want=$1
    shift
    "$@" > "$OUT/last.log" 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: exit $got, want $want: $*"
        cat "$OUT/last.log"
        fails=$((fails + 1))
    fi
}

# Each tool at tiny size runs clean.
expect 0 "$T/hoop_crashcheck" --budget 2 --out "$OUT"
expect 0 "$T/hoop_soak" --scheme hoop --workload vector --phases 1 \
    --tx 4 --out "$OUT" --json "$OUT/soak.json"
expect 0 "$T/hoop_ordercheck" --scheme hoop --txs 20
expect 0 "$T/hoop_trace" --txs 5 --cores 1 --out "$OUT/trace.json"

# An unknown flag, an unknown workload and a malformed or out-of-range
# number are usage errors, caught before any System is built.
for tool in hoop_crashcheck hoop_soak hoop_ordercheck hoop_trace; do
    expect 2 "$T/$tool" --bogus
    expect 2 "$T/$tool" --workload bogus
    expect 2 "$T/$tool" --seed 4O
done
expect 2 "$T/hoop_crashcheck" --budget 4O
expect 2 "$T/hoop_ordercheck" --cores 0
expect 2 "$T/hoop_ordercheck" --cores 40

# Seeded bugs are caught, and their reproducers replay the violation.
expect 1 "$T/hoop_crashcheck" --scheme hoop --workload vector \
    --budget 40 --break-commit-fence --out "$OUT/fence"
expect 1 "$T/hoop_crashcheck" \
    --replay "$(ls "$OUT"/fence/crashcheck_violation_*.json | head -n1)"

# A soak spec in the form hoop_soak writes replays clean, with its
# 64-bit seed and tiny fault probability intact.
cat > "$OUT/soak_spec.json" << 'EOF'
{
  "scheme": "hoop",
  "workload": "vector",
  "seed": 12345678901234567891,
  "num_cores": 2,
  "warmup_tx": 2,
  "phases": 2,
  "tx_per_phase": 4,
  "fault_prob": 1e-07,
  "escalation": 2,
  "recover_threads": 2
}
EOF
expect 0 "$T/hoop_soak" --replay "$OUT/soak_spec.json"
grep -q "seed 12345678901234567891" "$OUT/last.log" || {
    echo "FAIL: soak replay lost the seed"
    fails=$((fails + 1))
}
sed 's/"num_cores": 2/"num_cores": -1/' "$OUT/soak_spec.json" \
    > "$OUT/bad_spec.json"
expect 2 "$T/hoop_soak" --replay "$OUT/bad_spec.json"

if [ "$fails" -ne 0 ]; then
    echo "$fails check(s) failed"
    exit 1
fi
echo "tools smoke OK"
