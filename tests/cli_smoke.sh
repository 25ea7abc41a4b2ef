#!/usr/bin/env bash
# cli-smoke: the exit-code contract across a process boundary. The tests call
# main() in-process, so they cannot see what a shell sees.
#
#     bash tests/cli_smoke.sh
#
# Runs from any directory: it imports flatfold from the src/ beside this
# script and writes its files into a temporary directory it removes on exit.
set -e
src=$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)
export PYTHONPATH=$src
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

flatfold() { python -m flatfold.cli "$@"; }
flatfold count "90 90 90 90" --format json | python -c 'import json, sys; json.load(sys.stdin)'
rc=0; err=$(flatfold count "1e5000 1e5000" 2>&1 >/dev/null) || rc=$?
[ "$rc" -eq 1 ] || { echo "count 1e5000: exit $rc"; exit 1; }
if printf '%s' "$err" | grep -q Traceback; then echo "$err"; exit 1; fi
rc=0; flatfold check "90 90 90 90" --mv MMV || rc=$?
[ "$rc" -eq 1 ] || { echo "check --mv MMV: exit $rc"; exit 1; }
flatfold selftest --per-size 1 > /dev/null
# help prints from the command table and exits 0; usage errors exit 1
flatfold --help > help.out || { echo "flatfold --help: exit $?"; exit 1; }
for name in analyze count check enumerate pattern selftest; do
  grep -q -- "$name" help.out || { echo "flatfold --help does not name $name"; cat help.out; exit 1; }
done
flatfold check --help > help.out || { echo "flatfold check --help: exit $?"; exit 1; }
for name in --mv --oracle; do
  grep -q -- "$name" help.out || { echo "flatfold check --help does not name $name"; cat help.out; exit 1; }
done
flatfold count "90 90 90 90" --format json > format.out
for form in --format=json "--form json"; do
  flatfold count "90 90 90 90" $form | cmp - format.out || { echo "count $form differs from --format json"; exit 1; }
done
refused() {  # exit 1 and no traceback; leaves stderr in $err
  rc=0; err=$(flatfold "$@" 2>&1 >/dev/null) || rc=$?
  [ "$rc" -eq 1 ] || { echo "flatfold $*: exit $rc"; exit 1; }
  if printf '%s' "$err" | grep -q Traceback; then echo "$err"; exit 1; fi
}
refused bogus
refused check "90 90 90 90"
# a token of - and a digit is a value: the angle parser refuses it
refused count -90,90
printf '%s' "$err" | grep -q "non-positive angle" || { echo "count -90,90: $err"; exit 1; }
# a plain token is read with int and any other token by Fraction:
# across the two, a refusal names the first bad token, and the
# spellings only Fraction reads report as their plain twins
refused count "90 1e5 0 270"
printf '%s' "$err" | grep -q "'1e5' at position 2" || { echo "count 90 1e5 0 270: $err"; exit 1; }
cmp <(flatfold count "+90 .5 1_0 259.5" --format json) <(flatfold count "90 1/2 10 519/2" --format json) \
  || { echo "count +90 .5 1_0 259.5: reports differently from 90 1/2 10 519/2"; exit 1; }
# sectors 90, 90, 90+e, 90-e: exact closure fails by 2e
cat > near-miss.json <<'EOF'
{"vertices": [[-2,-2],[2,-2],[2,2],[-2,2],[0,0],[1,0],[0,1],[-1,0],["1/1000000000000000",-1]],
 "creases": [[4,5],[4,6],[4,7],[4,8]], "boundary": [0,1,2,3]}
EOF
out=$(flatfold pattern check near-miss.json --format json)
printf '%s' "$out" | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["reflection_traces"]["4"]["is_identity"] is not False)'
# pattern svg prints through main like every command: one line,
# and an unwritable output path is bad input, not a crash
flatfold pattern svg near-miss.json -o out.svg > svg.out || { echo "pattern svg: exit $?"; exit 1; }
printf 'wrote out.svg\n' | cmp - svg.out || { echo "pattern svg printed:"; cat svg.out; exit 1; }
head -c 5 out.svg | grep -q '^<?xml' || { echo "out.svg is not XML"; exit 1; }
rc=0; err=$(flatfold pattern svg near-miss.json -o /nonexistent/x.svg 2>&1 >/dev/null) || rc=$?
[ "$rc" -eq 1 ] || { echo "pattern svg -o /nonexistent/x.svg: exit $rc"; exit 1; }
if printf '%s' "$err" | grep -q -e Traceback -e "internal error"; then echo "$err"; exit 1; fi
# the oracle and the crimp filter list the same 420 assignments
ten="36 36 36 36 36 36 36 36 36 36"
ORACLE=$(flatfold enumerate "$ten" --format json) CRIMP=$(flatfold enumerate --fast "$ten" --format json) \
  python -c 'import json, os; a, b = (json.loads(os.environ[k]) for k in ("ORACLE", "CRIMP")); raise SystemExit(not (a["count"] == b["count"] == 420 and a["valid_assignments"] == b["valid_assignments"]))'
# ... and the same 32 of a closing 240-degree cone, 8 of the
# fractional golden star and 8 of a 300-degree cone over
# denominators 7, 11, 13, 91 and 77; then the classes that cost the
# oracle most: a pooled 8-sector star, a generic 10-sector star and
# a near-equal 10-sector cone
for spec in "32:20 30 40 30 20 30 40 30" "8:1/3 45/2 179/3 45/2 120 135" \
            "8:100/7 250/11 400/13 150/7 9550/91 8150/77" \
            "90:45 45 45 45 45 45 22.5 22.5" "32:10 20 30 40 50 35 40 25 50 60" \
            "120:24 72 24 24 48 24 48 24 24 24"; do
  star=${spec#*:}
  ORACLE=$(flatfold enumerate "$star" --format json) CRIMP=$(flatfold enumerate --fast "$star" --format json) \
    python -c 'import json, os, sys; a, b = (json.loads(os.environ[k]) for k in ("ORACLE", "CRIMP")); raise SystemExit(not (a["count"] == b["count"] == int(sys.argv[1]) and a["valid_assignments"] == b["valid_assignments"]))' "${spec%%:*}" \
    || { echo "enumerate $star: the oracle and --fast differ"; exit 1; }
done
# the oracle decides closure on its own integers: a star that does
# not close and an odd degree list nothing, and check --oracle runs
# on them and answers false
for star in "100 80 90 90" "120 120 120"; do
  out=$(flatfold enumerate "$star" --format json) || { echo "enumerate $star: exit $?"; exit 1; }
  printf '%s' "$out" | python -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["method"] == "oracle" and r["count"] == 0))' \
    || { echo "enumerate $star: $out"; exit 1; }
  mv=$(python -c 'import sys; print("M" * len(sys.argv[1].split()))' "$star")
  out=$(flatfold check "$star" --mv "$mv" --oracle --format json) || { echo "check $star --oracle: exit $?"; exit 1; }
  printf '%s' "$out" | python -c 'import json, sys; o = json.load(sys.stdin)["oracle"]; sys.exit(not (o["ran"] is True and o["valid"] is False))' \
    || { echo "check $star --oracle: $out"; exit 1; }
done
# a closing 12-sector star is above the oracle's default limit, so
# only check --oracle searches it, with the tables numbered from
# sheet 0: it agrees with crimping on a valid labeling, its flip and
# a labeling that passes Maekawa's rule but does not fold
star="15 40 25 35 30 20 35 45 40 25 35 15"
for spec in MMMVMMVMVMVV:true VVVMVVMVMVMM:true MMMMMMMVVVVV:false; do
  mv=${spec%%:*}
  out=$(flatfold check "$star" --mv "$mv" --oracle --format json) || { echo "check $star --mv $mv --oracle: exit $?"; exit 1; }
  printf '%s' "$out" | python -c 'import json, sys; r = json.load(sys.stdin); o = r["oracle"]; sys.exit(not (o["ran"] is True and o["valid"] == r["crimp_valid"] == (sys.argv[1] == "true")))' "${spec#*:}" \
    || { echo "check $star --mv $mv --oracle: $out"; exit 1; }
done
# a cone wider than one turn is beyond the oracle, and the refusal
# points to --fast, which lists its 2 assignments
rc=0; err=$(flatfold enumerate "200 200" 2>&1 >/dev/null) || rc=$?
[ "$rc" -eq 1 ] || { echo "enumerate 200 200: exit $rc"; exit 1; }
printf '%s' "$err" | grep -q "rerun with --fast" || { echo "$err"; exit 1; }
if printf '%s' "$err" | grep -q Traceback; then echo "$err"; exit 1; fi
# a count of more than 4300 digits is refused, not crashed on
rc=0; err=$(flatfold count "$(python -c 'print(" ".join(["1/40"] * 14400))')" 2>&1 >/dev/null) || rc=$?
[ "$rc" -eq 1 ] || { echo "count 14400 x 1/40: exit $rc"; exit 1; }
if printf '%s' "$err" | grep -q Traceback; then echo "$err"; exit 1; fi
rc=0; flatfold enumerate --fast "15 15 15 15 15 15 15 15 15 15 15 15 15 15 15 15 15 15 15 15 15 15 15 15" || rc=$?
[ "$rc" -eq 1 ] || { echo "enumerate --fast 24 x 15: exit $rc"; exit 1; }
# a closing star of 6400 sectors has at least 2^3200 assignments:
# --fast refuses it from its size, without replaying the recursion
star=$(python -c 'import random; r = random.Random(1); a = [r.randint(1, 99) for _ in range(3200)]; print(" ".join("%d %d" % (x, y) for x, y in zip(a, a[::-1])))')
rc=0; err=$(timeout 3 python -m flatfold.cli enumerate --fast "$star" 2>&1 >/dev/null) || rc=$?
[ "$rc" -eq 1 ] || { echo "enumerate --fast 6400 sectors: exit $rc"; exit 1; }
printf '%s' "$err" | grep -q "valid assignments exceed the listing limit of 100000" || { echo "$err"; exit 1; }
if printf '%s' "$err" | grep -q Traceback; then echo "$err"; exit 1; fi
# --fast lists from the recursion: 22880 distinct assignments of 16
# equal sectors, where trying all 2^16 labelings took seconds
timeout 10 python -m flatfold.cli enumerate --fast "$(python -c 'print(" ".join(["22.5"] * 16))')" --format json \
  | python -c 'import json, sys; found = json.load(sys.stdin)["valid_assignments"]; raise SystemExit(not len(set(found)) == len(found) == 22880)'
# pattern-file numbers follow the angle-token rules: a 5000-digit
# coordinate and an exponent are refused, not crashed or hung on
python -c '
doc = "{\"vertices\": [[0,0],[1,0],[1,1],[0,1],[0.5,0.5],[0.5,%s]], \"creases\": [[4,5]], \"boundary\": [0,1,2,3]}"
open("digits.json", "w").write(doc % ("1" * 5000))
open("exponent.json", "w").write(doc % "1e-3000000")'
for f in digits.json exponent.json; do
  rc=0; err=$(timeout 60 python -m flatfold.cli pattern check "$f" 2>&1 >/dev/null) || rc=$?
  [ "$rc" -eq 1 ] || { echo "pattern check $f: exit $rc"; exit 1; }
  if printf '%s' "$err" | grep -q Traceback; then echo "$err"; exit 1; fi
done
# a pattern file nested 100000 arrays deep is refused, not crashed on
python -c 'open("nested.json", "w").write("{\"vertices\": " + "[" * 100000 + "]" * 100000 + ", \"creases\": [], \"boundary\": []}")'
rc=0; err=$(flatfold pattern check nested.json 2>&1 >/dev/null) || rc=$?
[ "$rc" -eq 1 ] || { echo "pattern check nested.json: exit $rc"; exit 1; }
if printf '%s' "$err" | grep -q -e Traceback -e "internal error"; then echo "$err"; exit 1; fi
# a truncated file, an array document, a "creases" object, a file
# that is not UTF-8 and a value on a flag are bad input, not bugs
printf '{"vertices": [' > truncated.json
printf '[1, 2]' > array.json
printf '{"vertices": [], "creases": {}, "boundary": []}' > creases-object.json
printf '{"vertices": [[0,0]], "creases": [], "boundary": [0], "x": "\xff"}' > not-utf-8.json
for argv in "pattern check truncated.json" "pattern check array.json" \
            "pattern check creases-object.json" "pattern check not-utf-8.json" \
            "pattern svg not-utf-8.json -o not-utf-8.svg" "enumerate --fast=x 90,90,90,90"; do
  refused $argv
  if printf '%s' "$err" | grep -q "internal error"; then echo "$err"; exit 1; fi
done
# a reader that closes stdout early (half a megabyte of report
# into head) is not an internal error
star=$(python -c 'import random; r = random.Random(1); a = [r.randint(1, 99) for _ in range(200)]; print(" ".join("%d %d" % (x, y) for x, y in zip(a, a[::-1])))')
flatfold count "$star" 2> pipe.err | head -1 > /dev/null; rc=${PIPESTATUS[0]}
[ "$rc" -ne 2 ] || { echo "count 400 sectors | head -1: exit $rc"; cat pipe.err; exit 1; }
if grep -q -e Traceback -e "internal error" pipe.err; then cat pipe.err; exit 1; fi
# validation sweeps instead of comparing all pairs: an 80 x 80 unit
# grid with half its diagonals (15840 creases) checks in about 2 s,
# where the pairwise loops took half a minute
python -c '
import json
n = 80
at = lambda x, y: y * (n + 1) + x
creases = [[at(x, y), at(x + 1, y)] for y in range(1, n) for x in range(n)]
creases += [[at(x, y), at(x, y + 1)] for x in range(1, n) for y in range(n)]
creases += [[at(x, y), at(x + 1, y + 1)] for x in range(n) for y in range(n) if (x - y) % 2 == 0]
doc = {"vertices": [[x, y] for y in range(n + 1) for x in range(n + 1)], "creases": creases,
       "boundary": [at(0, 0), at(n, 0), at(n, n), at(0, n)]}
open("grid-80.json", "w").write(json.dumps(doc))'
rc=0; timeout 30 python -m flatfold.cli pattern check grid-80.json --format json > grid-80-check.json || rc=$?
[ "$rc" -eq 0 ] || { echo "pattern check grid-80.json: exit $rc"; exit 1; }
# an integral coordinate stays an int, and one written "x/1" becomes
# a Fraction: the same grid reports the same bytes either way
python -c '
import json
doc = json.load(open("grid-80.json"))
doc["vertices"] = [["%d/1" % x, "%d/1" % y] for x, y in doc["vertices"]]
open("grid-80-strings.json", "w").write(json.dumps(doc))'
flatfold pattern check grid-80-strings.json --format json > grid-80-strings-check.json
cmp grid-80-check.json grid-80-strings-check.json || { echo "grid-80: \"x/1\" coordinates report differently from ints"; exit 1; }
# a JSON report is the bytes of json.dumps(indent=2, sort_keys=True):
# a generic 400-sector count, an analyze report whose sectors are
# written as p/q, decimals and integers, two pattern checks, both
# listings, a check with and without --oracle and the selftest, as
# a shell reads them: every command that prints JSON
star=$(python -c 'import random; r = random.Random(2); a = [r.randint(1, 999999) for _ in range(200)]; print(" ".join("%d %d" % (x, y) for x, y in zip(a, a[::-1])))')
flatfold count "$star" --format json > count-400.json
flatfold analyze "15/4 3.75 5/2 2.5 1.25 5/4 170 170 5/2 2.5" --format json > analyze-mixed.json
flatfold pattern check near-miss.json --format json > pattern-check.json
flatfold enumerate "1/3 45/2 179/3 45/2 120 135" --format json > enumerate.json
flatfold enumerate --fast "1/3 45/2 179/3 45/2 120 135" --format json > enumerate-fast.json
flatfold check "1/3 45/2 179/3 45/2 120 135" --mv MVMMMM --format json > check.json
flatfold check "100 80 80 100" --mv MMVM --oracle --format json > check-oracle.json
flatfold selftest --format json > selftest.json
for f in count-400.json analyze-mixed.json pattern-check.json grid-80-check.json \
         enumerate.json enumerate-fast.json check.json check-oracle.json selftest.json; do
  python -c 'import json, sys; out = open(sys.argv[1], encoding="utf-8").read(); sys.exit(out != json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n")' "$f" \
    || { echo "$f: not the bytes of json.dumps(indent=2, sort_keys=True)"; exit 1; }
done
# a star written unreduced (2/4, 180/2, 0.50, 90.0, 358/4, 89.50) reports
# as its reduced twin, byte for byte, in both formats
for fmt in json text; do
  cmp <(flatfold count "2/4 0.50 180/2 90.0 358/4 89.50" --format $fmt) \
      <(flatfold count "1/2 1/2 90 90 179/2 179/2" --format $fmt) \
    || { echo "count --format $fmt: unreduced sectors report differently"; exit 1; }
done
