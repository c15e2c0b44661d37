# Runs the installed `mucinf` console script end to end; both CI jobs run
# it with `bash -e`, so the first command that fails fails the step.
# Writes its files under $RUNNER_TEMP.

mucinf laws-run --trials 3 --seed 7 --filter CP-EQUIV-ORACLE
mucinf laws-run --trials 3 --seed 7 --filter CP-BIFUNCTOR
mucinf laws-run --trials 3 --seed 7 --filter CP-TENSOR-PAR-AGREE
mucinf laws-run --trials 3 --seed 7 --model cplane --filter 'CP-*'
mucinf laws-list > /dev/null
# a channel round trip: compose, Choi matrix, purification, and
# the purified channel equivalent to the composite (exit 0)
python -c '
import json, os
s = 0.5 ** 0.5
for name, u, rows in (("id", 1, [[1, 0], [0, 1]]),
                      ("flip", 2, [[s, 0], [0, s], [0, s], [s, 0]])):
    body = {"rows": 2 * u, "cols": 2,
            "entries": [[x, 0] for row in rows for x in row]}
    with open(os.path.join(os.environ["RUNNER_TEMP"], name + ".json"),
              "w") as fh:
        json.dump({"dom": 2, "cod": 2, "ancilla": u, "body": body}, fh)
'
t="$RUNNER_TEMP"
mucinf channel-compose "$t/id.json" "$t/flip.json" --out "$t/k.json"
mucinf channel-choi "$t/k.json" --out "$t/choi.json"
mucinf channel-purify "$t/choi.json" --out "$t/purified.json"
mucinf channel-equiv "$t/k.json" "$t/purified.json"
# deeply nested JSON is a usage error: exit 2, one error line
python -c 'print("[" * 100000 + "]" * 100000)' > "$t/deep.json"
status=0
mucinf channel-choi "$t/deep.json" 2> "$t/deep.err" || status=$?
cat "$t/deep.err"
test "$status" -eq 2 && test "$(wc -l < "$t/deep.err")" -eq 1
