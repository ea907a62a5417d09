#!/bin/sh
# Smoke test for the live observability plane: start molsim with -serve
# on an ephemeral port, poll until the server answers, then assert that
# /metrics, /regions, /decisions and / all return non-empty, well-formed
# output. Then repeat for the serving layer: boot molcached with the
# two-tenant demo, assert /healthz answers 200 with a fresh snapshot,
# /tenants lists both demo tenants and /metrics counts them, and verify
# SIGTERM leaves a checkpoint behind. Finally boot molcached twice more from that
# checkpoint and journal: each boot must warm-restore, and the
# simulator's metrics must read the same on both. Exits nonzero (and
# prints the daemon log) on any failure.
set -eu

PORT="${OBS_SMOKE_PORT:-19464}"
ADDR="127.0.0.1:${PORT}"
CACHED_PORT="${MOLCACHED_SMOKE_PORT:-19465}"
CACHED_OBS_PORT="${MOLCACHED_SMOKE_OBS_PORT:-19466}"
DIR="$(mktemp -d)"
LOG="${DIR}/molsim.log"
CACHED_LOG="${DIR}/molcached.log"
SIM_PID=""
CACHED_PID=""

cleanup() {
	[ -n "${SIM_PID}" ] && kill "${SIM_PID}" 2>/dev/null || true
	[ -n "${CACHED_PID}" ] && kill "${CACHED_PID}" 2>/dev/null || true
	[ -n "${SIM_PID}" ] && wait "${SIM_PID}" 2>/dev/null || true
	[ -n "${CACHED_PID}" ] && wait "${CACHED_PID}" 2>/dev/null || true
	rm -rf "${DIR}"
}

fail() {
	echo "obs-smoke: FAIL: $1" >&2
	echo "--- molsim log ---" >&2
	cat "${LOG}" >&2 || true
	exit 1
}

# fetch URL OUT: curl with a fallback to wget for minimal images.
fetch() {
	if command -v curl >/dev/null 2>&1; then
		curl -fsS -o "$2" "$1"
	else
		wget -q -O "$2" "$1"
	fi
}

trap cleanup EXIT INT TERM

# Build a real binary so the cleanup's kill reaches molsim itself: under
# `go run` it would stop the wrapper and leave the compiled child
# serving until its -serve-linger ran out.
echo "obs-smoke: building molsim"
go build -o "${DIR}/molsim" ./cmd/molsim || fail "molsim does not build"
echo "obs-smoke: starting molsim -serve ${ADDR}"
"${DIR}/molsim" \
	-cache molecular:2MB:1x4:Randy -mix crafty,CRC,DRR -refs 1500000 \
	-serve "${ADDR}" -publish-every 8192 -serve-linger 60s \
	>"${LOG}" 2>&1 &
SIM_PID=$!

# Poll until the server is up.
BASE="http://${ADDR}"
i=0
until fetch "${BASE}/" "${DIR}/index.txt" 2>/dev/null; do
	i=$((i + 1))
	if [ "${i}" -ge 120 ]; then
		fail "server did not come up on ${ADDR} within 120s"
	fi
	if ! kill -0 "${SIM_PID}" 2>/dev/null; then
		fail "molsim exited before serving"
	fi
	sleep 1
done

grep -q "/decisions" "${DIR}/index.txt" || fail "index page missing endpoint listing"

# Give the simulation a moment to publish a real snapshot, then assert
# each endpoint. /regions must eventually show per-ASID topology.
i=0
while :; do
	fetch "${BASE}/regions" "${DIR}/regions.json" || fail "GET /regions"
	if grep -q '"asid"' "${DIR}/regions.json"; then
		break
	fi
	i=$((i + 1))
	if [ "${i}" -ge 60 ]; then
		fail "/regions never published region topology: $(cat "${DIR}/regions.json")"
	fi
	sleep 1
done
grep -q '"molecules"' "${DIR}/regions.json" || fail "/regions missing molecule counts"
grep -q '"miss_rate"' "${DIR}/regions.json" || fail "/regions missing miss rates"

fetch "${BASE}/metrics" "${DIR}/metrics.prom" || fail "GET /metrics"
grep -q '^# TYPE molcache_molecular_hits_total counter' "${DIR}/metrics.prom" \
	|| fail "/metrics missing molecular hit counter"
grep -q '^molcache_access_service_cycles_bucket' "${DIR}/metrics.prom" \
	|| fail "/metrics missing service-time histogram"

fetch "${BASE}/decisions" "${DIR}/decisions.json" || fail "GET /decisions"
grep -q '"decisions"' "${DIR}/decisions.json" || fail "/decisions not well-formed"
grep -q '"reason"' "${DIR}/decisions.json" || fail "/decisions has no reasoned entries"

fetch "${BASE}/debug/pprof/cmdline" "${DIR}/pprof.txt" || fail "GET /debug/pprof/cmdline"

fetch "${BASE}/healthz" "${DIR}/healthz.json" || fail "GET /healthz"
grep -q '"status": "ok"' "${DIR}/healthz.json" || fail "/healthz not ok: $(cat "${DIR}/healthz.json")"
grep -q '"snapshot_taken"' "${DIR}/healthz.json" || fail "/healthz missing snapshot time"
grep -q '"snapshot_age_seconds"' "${DIR}/healthz.json" || fail "/healthz missing snapshot age"
grep -q '"events_dropped"' "${DIR}/healthz.json" || fail "/healthz missing event-tap drop count"

echo "obs-smoke: OK (/ /metrics /regions /decisions /healthz /debug/pprof all served)"

kill "${SIM_PID}" 2>/dev/null || true
wait "${SIM_PID}" 2>/dev/null || true
SIM_PID=""

# --- Serving layer: molcached ---------------------------------------
# Boot the daemon with the deterministic two-tenant demo, a journal and
# a checkpoint path. Like molsim, it runs as a built binary, so SIGTERM
# reaches the daemon directly.
cfail() {
	echo "obs-smoke: FAIL: $1" >&2
	echo "--- molcached log ---" >&2
	cat "${CACHED_LOG}" >&2 || true
	exit 1
}

CACHED_ADDR="127.0.0.1:${CACHED_PORT}"
CACHED_OBS="127.0.0.1:${CACHED_OBS_PORT}"
CKPT="${DIR}/molcached.ckpt"
echo "obs-smoke: building molcached"
go build -o "${DIR}/molcached" ./cmd/molcached || cfail "molcached does not build"
echo "obs-smoke: starting molcached -serve ${CACHED_OBS}"
"${DIR}/molcached" \
	-listen "${CACHED_ADDR}" -serve "${CACHED_OBS}" \
	-cache molecular:1MB:4x2:Randy -demo -demo-ops 3000 \
	-journal "${DIR}/access.molc" -checkpoint "${CKPT}" \
	>"${CACHED_LOG}" 2>&1 &
CACHED_PID=$!

CBASE="http://${CACHED_OBS}"
i=0
until fetch "${CBASE}/healthz" "${DIR}/chealthz.json" 2>/dev/null; do
	i=$((i + 1))
	if [ "${i}" -ge 120 ]; then
		cfail "molcached did not come up on ${CACHED_OBS} within 120s"
	fi
	if ! kill -0 "${CACHED_PID}" 2>/dev/null; then
		cfail "molcached exited before serving"
	fi
	sleep 1
done

# Wait until /tenants lists both demo tenants. molcached collects the
# state each request serves, so /healthz must then report a snapshot
# taken just now (one older than 60s means it serves a stale state) and
# /metrics must count the same two tenants.
i=0
while :; do
	fetch "${CBASE}/tenants" "${DIR}/tenants.json" || cfail "GET /tenants"
	if grep -q '"hot"' "${DIR}/tenants.json" && grep -q '"scan"' "${DIR}/tenants.json"; then
		break
	fi
	i=$((i + 1))
	if [ "${i}" -ge 60 ]; then
		cfail "/tenants never listed the demo tenants: $(cat "${DIR}/tenants.json")"
	fi
	sleep 1
done
grep -q '"goal": 0.05' "${DIR}/tenants.json" || cfail "/tenants missing the tight demo goal"
grep -q '"miss_rate"' "${DIR}/tenants.json" || cfail "/tenants missing miss rates"
grep -q '"slo_met"' "${DIR}/tenants.json" || cfail "/tenants missing SLO verdicts"

fetch "${CBASE}/healthz" "${DIR}/chealthz.json" || cfail "GET /healthz"
grep -q '"status": "ok"' "${DIR}/chealthz.json" || cfail "/healthz not ok: $(cat "${DIR}/chealthz.json")"
AGE="$(sed -n 's/.*"snapshot_age_seconds": \([0-9]*\)\(\.[0-9]*\)\?.*/\1/p' "${DIR}/chealthz.json")"
[ -n "${AGE}" ] || cfail "/healthz missing snapshot age: $(cat "${DIR}/chealthz.json")"
[ "${AGE}" -lt 60 ] || cfail "/healthz snapshot is stale (${AGE}s old)"

fetch "${CBASE}/metrics" "${DIR}/cmetrics.prom" || cfail "GET /metrics"
grep -q '^molcache_server_accesses_total' "${DIR}/cmetrics.prom" \
	|| cfail "/metrics missing server access counter"
grep -q '^molcache_server_tenants 2$' "${DIR}/cmetrics.prom" \
	|| cfail "/metrics does not count the two demo tenants: $(grep molcache_server_tenants "${DIR}/cmetrics.prom")"
grep -q 'molcache_server_requests_total{verb=' "${DIR}/cmetrics.prom" \
	|| cfail "/metrics missing per-verb request counters"

# SIGTERM must checkpoint and exit cleanly.
kill -TERM "${CACHED_PID}"
i=0
while kill -0 "${CACHED_PID}" 2>/dev/null; do
	i=$((i + 1))
	if [ "${i}" -ge 30 ]; then
		cfail "molcached did not exit within 30s of SIGTERM"
	fi
	sleep 1
done
wait "${CACHED_PID}" 2>/dev/null || cfail "molcached exited nonzero"
CACHED_PID=""
[ -s "${CKPT}" ] || cfail "SIGTERM left no checkpoint at ${CKPT}"
grep -q "checkpoint written" "${CACHED_LOG}" || cfail "shutdown log missing checkpoint line"

echo "obs-smoke: OK (molcached /healthz /tenants /metrics served, SIGTERM checkpointed)"

# --- Warm restarts ----------------------------------------------------
# Boot the daemon twice more from its own checkpoint and journal, with
# no demo traffic. Each boot must warm-restore, and the sim-plane
# series of /metrics (every count behind them is simulator state the
# checkpoint saves) must be identical across the two boots.
warm_boot() {
	CACHED_LOG="${DIR}/molcached.warm$1.log"
	"${DIR}/molcached" \
		-listen "${CACHED_ADDR}" -serve "${CACHED_OBS}" \
		-cache molecular:1MB:4x2:Randy \
		-journal "${DIR}/access.molc" -checkpoint "${CKPT}" \
		>"${CACHED_LOG}" 2>&1 &
	CACHED_PID=$!
	i=0
	until grep -q "serving on" "${CACHED_LOG}" && fetch "${CBASE}/metrics" "${DIR}/wmetrics$1.prom" 2>/dev/null; do
		i=$((i + 1))
		if [ "${i}" -ge 120 ]; then
			cfail "warm boot $1 did not serve /metrics within 120s"
		fi
		if ! kill -0 "${CACHED_PID}" 2>/dev/null; then
			cfail "warm boot $1 exited before serving"
		fi
		sleep 1
	done
	grep -q "warm restore" "${CACHED_LOG}" || cfail "boot $1 from the checkpoint did not warm-restore"
	grep -E '^molcache_(molecular_|resize_|fault_|region_|access_service_cycles)' \
		"${DIR}/wmetrics$1.prom" >"${DIR}/wsim$1.prom"
	kill -TERM "${CACHED_PID}"
	i=0
	while kill -0 "${CACHED_PID}" 2>/dev/null; do
		i=$((i + 1))
		if [ "${i}" -ge 30 ]; then
			cfail "warm boot $1 did not exit within 30s of SIGTERM"
		fi
		sleep 1
	done
	wait "${CACHED_PID}" 2>/dev/null || cfail "warm boot $1 exited nonzero"
	CACHED_PID=""
}
warm_boot 1
warm_boot 2
grep -q '^molcache_molecular_hits_total [1-9]' "${DIR}/wsim1.prom" \
	|| cfail "warm boot reports no molecular hits: $(grep molcache_molecular_hits_total "${DIR}/wsim1.prom")"
cmp -s "${DIR}/wsim1.prom" "${DIR}/wsim2.prom" \
	|| cfail "sim-plane /metrics differ across warm boots: $(diff "${DIR}/wsim1.prom" "${DIR}/wsim2.prom" | head -20)"

echo "obs-smoke: OK (two warm boots restored identical sim-plane /metrics)"
