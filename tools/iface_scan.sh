#!/usr/bin/env bash
# Qualified interface scan: every value a lib/**/*.mli exports needs a
# caller outside its own module under lib/, bin/, bench/, perfbench/ or
# examples/, and every optional parameter of it such a caller that
# supplies it, unless tools/iface_scan.allow names it with a reason.
#
#   bash tools/iface_scan.sh
#
# Builds the typed trees (dune build @check) and the scanner, then runs
# it at the repository root. Exit 0 clean, 1 on a finding.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet @check tools/iface_scan.exe
exec ./_build/default/tools/iface_scan.exe
