# Design rules of src/mucinf, checked by grep.  Prints each line that
# breaks a rule and exits 1; exits 0 when none does.  Run from anywhere:
#   bash .github/design-rules.sh
cd "$(dirname "$0")/../src/mucinf" || exit 2
status=0

# rule <what> <extended regex> <file>...
rule() {
  what=$1 pattern=$2
  shift 2
  if grep -nE "$pattern" "$@"; then
    echo "^ $what" >&2
    status=1
  fi
}

# every verdict is morphisms.within: no other module compares against tol
rule "a tolerance comparison outside morphisms" \
  '(<=|>=|<|>) *tol\b|\btol *(<=|>=|<|>)' \
  $(ls ./*.py | grep -v '^\./morphisms\.py$')
# the default tolerance is written once, as morphisms.TOL
if grep -nE '= *1e-9|default=1e-9' ./*.py \
    | grep -vE '^\./morphisms\.py:[0-9]+:TOL = 1e-9$'; then
  echo "^ a 1e-9 default outside morphisms.TOL" >&2
  status=1
fi
# everything model-specific lives behind the Model interface
rule "a branch on a model class in cpinf, laws or suite" \
  'isinstance\([^)]*\b(MatModel|FmatModel|CplaneModel)\b' \
  cpinf.py laws.py suite.py
rule "a model name compared to a string literal in cpinf, laws or suite" \
  "\.(name|model|base) *[!=]= *[\"']|[\"'] *[!=]= *[A-Za-z_][A-Za-z0-9_.]*\.(name|model|base)\b" \
  cpinf.py laws.py suite.py

exit $status
