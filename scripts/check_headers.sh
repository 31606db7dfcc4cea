#!/usr/bin/env bash
# Compile every public header standalone (-fsyntax-only) to prove each one
# carries its own includes — a header that only builds when included after
# another breaks downstream users and precompiled-header setups. New backend
# headers under src/core/estimators/ are the motivating case: they must be
# includable without core/coestimator.hpp.
#
# Usage: scripts/check_headers.sh [compiler]   (default: ${CXX:-g++})
set -u

cd "$(dirname "$0")/.."
compiler="${1:-${CXX:-g++}}"

fails=0
checked=0
while IFS= read -r hdr; do
  checked=$((checked + 1))
  if ! "$compiler" -std=c++20 -fsyntax-only -I src -x c++ "$hdr" 2>/tmp/hdr_err.$$; then
    echo "FAIL: $hdr does not compile standalone" >&2
    sed 's/^/    /' /tmp/hdr_err.$$ >&2
    fails=$((fails + 1))
  fi
done < <(find src -name '*.hpp' | sort)
rm -f /tmp/hdr_err.$$

echo "checked $checked headers, $fails failures"
[ "$fails" -eq 0 ]
