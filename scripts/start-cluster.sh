#!/usr/bin/env bash
# Start a scalemap master on this host and one worker per line of HOSTFILE.
#
# usage: start-cluster.sh HOSTFILE [PORT] [SLOTS]
#
# HOSTFILE lists one worker host per line (blank lines and #comments ignored).
# Hosts named localhost/127.0.0.1 are launched directly; anything else via
# ssh, which assumes scalemap is installed and on PATH there too.
#
# State (PIDs, master address, logs) goes to ./.scalemap-cluster/ so that
# stop-cluster.sh can tear everything down.

set -euo pipefail

HOSTFILE=${1:?usage: start-cluster.sh HOSTFILE [PORT] [SLOTS]}
PORT=${2:-7077}
SLOTS=${3:-$(nproc 2>/dev/null || echo 1)}

STATE_DIR=.scalemap-cluster
mkdir -p "$STATE_DIR"

mapfile -t HOSTS < <(grep -vE '^\s*(#|$)' "$HOSTFILE")
if [ "${#HOSTS[@]}" -eq 0 ]; then
    echo "error: $HOSTFILE lists no worker hosts" >&2
    exit 2
fi

MASTER_HOST=$(hostname -f 2>/dev/null || hostname)
MASTER_ADDR="$MASTER_HOST:$PORT"

echo "starting master on $MASTER_ADDR (expecting ${#HOSTS[@]} workers)"
nohup scalemap master --port "$PORT" --workers "${#HOSTS[@]}" \
    >"$STATE_DIR/master.log" 2>&1 &
echo $! > "$STATE_DIR/master.pid"
echo "$MASTER_ADDR" > "$STATE_DIR/master.addr"
# no wait for the master: each worker retries registration with backoff

i=0
for host in "${HOSTS[@]}"; do
    i=$((i + 1))
    name="worker-$i-$host"
    echo "starting $name (slots=$SLOTS)"
    if [ "$host" = "localhost" ] || [ "$host" = "127.0.0.1" ]; then
        nohup scalemap worker --master "127.0.0.1:$PORT" --slots "$SLOTS" \
            --name "$name" >"$STATE_DIR/$name.log" 2>&1 &
        echo $! >> "$STATE_DIR/workers.pid"
    else
        ssh -o BatchMode=yes "$host" \
            "nohup scalemap worker --master '$MASTER_ADDR' --slots $SLOTS \
             --name '$name' >/tmp/scalemap-$name.log 2>&1 & echo \$!" \
            >> "$STATE_DIR/workers.remote" || echo "warning: launch on $host failed" >&2
    fi
done

echo "cluster up; submit work with: scalemap bench ... --master $MASTER_ADDR"
