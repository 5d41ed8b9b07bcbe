#!/bin/sh
# Server round trip (docs/SERVER.md): a pedsim_server serves the full
# registry on both backends, then a warm second pass that runs entirely on
# cache hits; both must match the same suite run in-process on every
# column but threads and timings, fingerprint included. Then a copy of
# conveyor_platform whose mover starts later goes through the same server,
# where it adopts the registry entry's distance fields, and must match its
# in-process run. Ends with a SIGTERM: the server must drain and exit 0.
#
#   server_round_trip.sh PEDSIM_SERVER SCENARIO_SUITE SCENARIO_GALLERY LIMIT_S
#
# The server runs under `timeout LIMIT_S`, so it cannot outlive the test
# even when the test runner kills this shell.
set -eu
server=$1 suite=$2 gallery=$3 limit=$4
work=$(mktemp -d)
sock=$work/pedsim.sock
timeout "$limit" "$server" --socket="$sock" --threads=3 2> "$work/server.log" &
pid=$!
trap 'kill -TERM $pid 2> /dev/null || true; rm -rf "$work"' EXIT

# The server logs "listening" once it accepts connections and handles
# SIGTERM.
until grep -q listening "$work/server.log"; do
    if ! kill -0 $pid 2> /dev/null; then
        cat "$work/server.log"
        exit 1
    fi
    sleep 0.1
done

cd "$work"
backends=cpu,gpu-simt
# The scenario_suite_threads_agree ctest's cut: all but threads (6) and
# the timing columns (15-19).
fingerprints() { cut -d, -f1-5,7-14,20 "$1"; }

"$suite" --steps=20 --backend=$backends --server="$sock" --csv=remote.csv
"$suite" --steps=20 --backend=$backends --server="$sock" --csv=warm.csv
"$suite" --steps=20 --backend=$backends --csv=local.csv
fingerprints local.csv > fp_local.csv
fingerprints remote.csv > fp_remote.csv
fingerprints warm.csv > fp_warm.csv
diff fp_local.csv fp_remote.csv
diff fp_local.csv fp_warm.csv

# The shifted copy is a new cache entry whose wall configurations the
# registry pass already holds.
mkdir exported
"$gallery" conveyor_platform --export=exported > /dev/null
sed 's/^mover = 10 /mover = 25 /' exported/conveyor_platform.scenario \
    > shifted.scenario
grep -q '^mover = 25 ' shifted.scenario
"$suite" --file=shifted.scenario --steps=80 --backend=$backends \
    --server="$sock" --csv=shifted_remote.csv
"$suite" --file=shifted.scenario --steps=80 --backend=$backends \
    --csv=shifted_local.csv
fingerprints shifted_local.csv > fp_shifted_local.csv
fingerprints shifted_remote.csv > fp_shifted_remote.csv
diff fp_shifted_local.csv fp_shifted_remote.csv

# Graceful drain: SIGTERM must exit 0 after finishing the work (timeout
# passes the signal on and exits with the server's status).
kill -TERM $pid
wait $pid
cat "$work/server.log"
