#!/usr/bin/env bash
# Build the benchmark offline (release, the root's profile mirrored) and run
# it. All arguments go to the binary; see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
