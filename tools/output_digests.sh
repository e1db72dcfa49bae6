#!/usr/bin/env bash
# Run a fixed set of bearingsound commands from one checkout and print a
# sorted "sha256  path" line for every file they leave, including each
# command's stdout, stderr and exit code. The first line names the OpenBLAS
# kernel (tools/blas_core.py). Synthesized campaigns and feature caches
# repeat on every kernel: the 6.13 s campaign is extracted a second time
# under OPENBLAS_CORETYPE=Prescott, and its caches' digests equal the
# first run's. Models and reports repeat for one kernel and thread setting
# only, so lists whose first lines differ are comparable in their WAVs and
# caches alone.
#
#   tools/output_digests.sh <checkout> <out-dir>
#
# <out-dir> must not exist. Captured streams have <out-dir> replaced by
# "<out>", so two checkouts run into different directories can be compared
# with one diff:
#
#   tools/output_digests.sh ../before /tmp/before > before.txt
#   tools/output_digests.sh . /tmp/after > after.txt
#   diff before.txt after.txt
#
# The set: a seed-5 40 s default campaign, a 6.13 s one (it ends inside a
# synthesis block and inside a frame) and its extract, on this CPU's
# kernel and on Prescott's, an 8 s one at --fs 16000 and its extract with
# no feature flag (each cache records the WAVs' 16 kHz), a two-channel
# scenario file (a jittered inner-ring fault, and an outer-ring fault whose
# resonance outlasts its 1 s recording), the same file with a
# resonance so slow that its -80 dB kernel would span days, a 20 s channel
# at that decay, channels whose decays lie just above and just below the
# one at which a resonance falls 80 dB within a sample (the first beside
# its fault-free twin), one at a subnormal decay (5e-324/s, an
# OverflowError before), a channel of impact amplitude 1e100, a 30 s
# scenario with harmonics up to h = 40 and a sparse fault (one impact per
# 20 turns) and its extract, a channel whose peak is about 1e-305 (its WAV
# gain overflowed to inf before, and the samples were cast as NaN), a
# scenario whose harmonic lies far above fs/2
# (a data error), a scenario whose harmonic 10^6 of a 0.01 Hz shaft lies
# below fs/2 but above the Taylor tables' bound (a data error), a scenario
# with a NaN duration, one with an unknown key, one with seed 2.9, one with
# seed -1, one that names its channel and its duration twice, one whose
# channel is null, one with no channel key, one whose profile numbers are
# strings and one whose fault rate, 300 impacts per turn of a 43 Hz
# shaft, lies above fs/2 (data errors, no --out directory), an
# extract of a channel whose .rot file holds nan (a data error), an extract
# of two channels whose second WAV is missing (a data error; the first
# channel's cache is left behind), an extract of a 0.2 s campaign at
# 400 kHz, too high a rate for 26 Mel channels in a 2048-sample frame (a
# data error naming the channel and the 22 that fit), an extract of the
# 6.13 s campaign's manifest with a misspelt "componnet" key, with an
# "axle" of 3 and with a null "file" (data errors naming the manifest, the
# channel and the key), the 6.13 s default campaign written out as a scenario file
# (dataclasses.asdict of each channel) and synthesized from it (the same
# WAVs, .rot files and manifest), a channel with whole numbers spelled as
# integers beside its float-spelled twin (the same bytes), five scenarios
# whose fault is {}, false, 0, [] or "" (data errors), the four named
# experiments
# (600/200 split, 2 epochs), seen-motor on an 8 s campaign synthesized
# with the same seed, seen-motor again on that campaign after one of its
# caches was truncated (that channel is extracted again, the others are
# reused),
# extract with 10 coefficients, extract with 24 Mel channels,
# random and by-channel (two channel lists, no mode flag) train and eval,
# an eval of the random model on a
# 1000-frame test split (several prediction blocks), an eval of it on the
# 24-channel caches (a model whose feature settings differ from its caches'),
# an eval of it with one std value set to NaN and one with it set to 0
# (data errors that name the model file and write no report), scatter, and a few usage errors (among them a zero --fs and a
# fractional one, 25600.5 Hz, for synth, an experiment with no campaign
# whose --epochs is rejected before its manifest is looked for, a train whose --epochs is
# rejected before its missing caches are looked for, an extract whose
# --channels list is empty, an extract whose --band is reversed and a synth
# at --seed -1), a
# synth whose 1e9 s channels are too large to allocate and one whose 0.05 s
# channels are shorter than a frame (data errors), and default campaigns at
# --fs 1 and 100 (usage errors: harmonic 8 lies above fs/2) and at
# --duration 1e-6 and 2e-5 (data errors: no frame).
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <checkout> <out-dir>" >&2
    exit 64
fi
src="$(cd "$1" && pwd)/src"
core="$("${PYTHON:-python3}" "$(dirname "$0")/blas_core.py")"
mkdir "$2"
out="$(cd "$2" && pwd)"
mkdir "$out/logs"

# run NAME ARGS...: one CLI call; logs/NAME.{stdout,stderr,rc} record it.
run() {
    local name=$1 rc=0
    shift
    PYTHONPATH="$src" "${PYTHON:-python3}" -m bearingsound.cli "$@" \
        > "$out/logs/$name.stdout" 2> "$out/logs/$name.stderr" || rc=$?
    echo "$rc" > "$out/logs/$name.rc"
    sed -i "s|$out|<out>|g" "$out/logs/$name.stdout" "$out/logs/$name.stderr"
}

data="$out/campaign"
run synth --seed 5 synth --default-campaign --duration 40 --out "$data"
run synth-odd --seed 5 synth --default-campaign --duration 6.13 \
    --out "$out/campaign-odd"
run extract-odd extract --manifest "$out/campaign-odd/manifest.json" \
    --out "$out/campaign-odd/features"
OPENBLAS_CORETYPE=Prescott run extract-odd-prescott extract \
    --manifest "$out/campaign-odd/manifest.json" \
    --out "$out/campaign-odd/features-prescott"
run synth-16k --seed 5 synth --default-campaign --duration 8 --fs 16000 \
    --out "$out/campaign-16k"
run extract-16k extract --manifest "$out/campaign-16k/manifest.json" \
    --out "$out/campaign-16k/features"
# scenario_file FILE DECAY: two faulted channels, the second on a 1 s
# recording with a resonance that decays at DECAY per second.
scenario_file() {
    cat > "$1" <<EOF
[{"channel": "J1", "label": "D", "seed": 11, "duration": 4,
  "profile": [[0, 43.0], [2, 44.5], [3, 36.0]],
  "harmonics": [[1, 1.0], [2, 0.5], [5, 0.2]], "noise_level": 0.3,
  "fault": {"kind": "inner_ring", "freq_ratio": 5.4, "amplitude": 0.9,
            "resonance_freq": 4300, "resonance_decay": 900, "jitter": 0.75}},
 {"channel": "K1", "label": "D", "seed": 12, "duration": 1,
  "profile": [[0, 44.0]], "harmonics": [[1, 1.0], [3, 0.3]],
  "noise_level": 0.2,
  "fault": {"kind": "outer_ring", "freq_ratio": 3.5, "amplitude": 0.02,
            "resonance_freq": 3000, "resonance_decay": $2, "jitter": 0.1}}]
EOF
}
scenario_file "$out/scenario.json" 5
run synth-scenario synth --scenario "$out/scenario.json" \
    --out "$out/scenario-campaign"
scenario_file "$out/scenario-slow-decay.json" 1e-6
run synth-scenario-slow-decay synth --scenario "$out/scenario-slow-decay.json" \
    --out "$out/scenario-slow-decay-campaign"
# fault_channel ID SECONDS AMPLITUDE DECAY: one outer-ring channel object.
fault_channel() {
    cat <<EOF
{"channel": "$1", "label": "D", "seed": 15, "duration": $2,
 "profile": [[0, 43.0]], "harmonics": [[1, 1.0], [2, 0.4]], "noise_level": 0.2,
 "fault": {"kind": "outer_ring", "freq_ratio": 3.5, "amplitude": $3,
           "resonance_freq": 3000, "resonance_decay": $4, "jitter": 0.1}}
EOF
}
# A 20 s channel whose resonances barely decay (1e-6/s).
echo "[$(fault_channel L1 20 0.01 1e-6)]" > "$out/scenario-decay-20s.json"
run synth-scenario-decay-20s synth --scenario "$out/scenario-decay-20s.json" \
    --out "$out/scenario-decay-20s-campaign"
# Decays on either side of fs*ln(1e4) = 235784.7/s, beyond which a resonance
# falls 80 dB within one sample and adds nothing: E1's WAV equals that of
# E0, its fault-free twin.
cat > "$out/scenario-decay-edges.json" <<EOF
[{"channel": "E0", "label": "H", "seed": 15, "duration": 1,
  "profile": [[0, 43.0]], "harmonics": [[1, 1.0], [2, 0.4]], "noise_level": 0.2},
 $(fault_channel E1 1 0.5 235785), $(fault_channel E2 1 0.5 235784)]
EOF
run synth-scenario-decay-edges synth --scenario "$out/scenario-decay-edges.json" \
    --out "$out/scenario-decay-edges-campaign"
# A subnormal decay, whose -80 dB span overflows to inf.
echo "[$(fault_channel S1 1 0.5 5e-324)]" > "$out/scenario-decay-subnormal.json"
run synth-scenario-decay-subnormal synth \
    --scenario "$out/scenario-decay-subnormal.json" \
    --out "$out/scenario-decay-subnormal-campaign"
# Amplitude 1e100 at a fast decay (1e4/s): the samples stay finite.
echo "[$(fault_channel H1 1 1e100 1e4)]" > "$out/scenario-huge-amplitude.json"
run synth-scenario-huge-amplitude synth \
    --scenario "$out/scenario-huge-amplitude.json" \
    --out "$out/scenario-huge-amplitude-campaign"
# Harmonics up to h = 40 (more Taylor terms in the harmonic sum) and an
# outer-ring fault at 0.05 impacts per turn (most resonance blocks hold no
# impact).
cat > "$out/scenario-rich-sparse.json" <<EOF
[{"channel": "R1", "label": "D", "seed": 14, "duration": 30,
  "profile": [[0, 43.0], [12, 44.0], [20, 35.0]],
  "harmonics": [[1, 1.0], [2, 0.5], [7, 0.2], [19, 0.1], [33, 0.05],
                [40, 0.03]], "noise_level": 0.1,
  "fault": {"kind": "outer_ring", "freq_ratio": 0.05, "amplitude": 2.0,
            "resonance_freq": 4000, "resonance_decay": 900, "jitter": 0.1}}]
EOF
run synth-scenario-rich-sparse synth --scenario "$out/scenario-rich-sparse.json" \
    --out "$out/scenario-rich-sparse-campaign"
run extract-rich-sparse extract \
    --manifest "$out/scenario-rich-sparse-campaign/manifest.json" \
    --out "$out/scenario-rich-sparse-campaign/features"
cat > "$out/scenario-tiny-peak.json" <<EOF
[{"channel": "P1", "label": "H", "seed": 13, "duration": 0.5,
  "profile": [[0, 43.0]], "harmonics": [[1, 1e-305]], "noise_level": 0}]
EOF
run synth-scenario-tiny-peak synth --scenario "$out/scenario-tiny-peak.json" \
    --out "$out/scenario-tiny-peak-campaign"
cat > "$out/scenario-above-nyquist.json" <<EOF
[{"channel": "N1", "label": "H", "seed": 13, "duration": 0.05,
  "profile": [[0, 43.0]], "harmonics": [[1, 1.0], [3000000, 0.5]]}]
EOF
run error-synth-above-nyquist synth --scenario "$out/scenario-above-nyquist.json" \
    --out "$out/error-above-nyquist"
cat > "$out/scenario-slow-shaft.json" <<EOF
[{"channel": "T1", "label": "H", "seed": 13, "duration": 0.1,
  "profile": [[0, 0.01]], "harmonics": [[1, 1.0], [1000000, 0.5]]}]
EOF
run error-synth-slow-shaft synth --scenario "$out/scenario-slow-shaft.json" \
    --out "$out/error-slow-shaft"
cat > "$out/scenario-nan-duration.json" <<EOF
[{"channel": "U1", "label": "H", "seed": 13, "duration": NaN,
  "profile": [[0, 43.0]], "harmonics": [[1, 1.0]]}]
EOF
run error-synth-nan-duration synth --scenario "$out/scenario-nan-duration.json" \
    --out "$out/error-nan-duration"
cat > "$out/scenario-unknown-key.json" <<EOF
[{"channel": "V1", "label": "H", "seed": 13, "duration": 0.5,
  "profile": [[0, 43.0]], "harmonics": [[1, 1.0]], "noise": 0.3}]
EOF
run error-synth-unknown-key synth --scenario "$out/scenario-unknown-key.json" \
    --out "$out/error-unknown-key"
cat > "$out/scenario-seed-fraction.json" <<EOF
[{"channel": "W1", "label": "H", "seed": 2.9, "duration": 0.5,
  "profile": [[0, 43.0]], "harmonics": [[1, 1.0]]}]
EOF
run error-synth-seed-fraction synth --scenario "$out/scenario-seed-fraction.json" \
    --out "$out/error-seed-fraction"
cat > "$out/scenario-seed-negative.json" <<EOF
[{"channel": "W2", "label": "H", "seed": -1, "duration": 0.5,
  "profile": [[0, 43.0]], "harmonics": [[1, 1.0]]}]
EOF
run error-synth-seed-negative synth --scenario "$out/scenario-seed-negative.json" \
    --out "$out/error-seed-negative"
cat > "$out/scenario-duplicate-key.json" <<EOF
[{"channel": "A1", "channel": "B9", "label": "H", "seed": 13, "duration": 0.5,
  "duration": 1, "profile": [[0, 43.0]], "harmonics": [[1, 1.0]]}]
EOF
run error-synth-duplicate-key synth --scenario "$out/scenario-duplicate-key.json" \
    --out "$out/error-duplicate-key"
cat > "$out/scenario-channel-null.json" <<EOF
[{"channel": null, "label": "H", "seed": 13, "duration": 0.5,
  "profile": [[0, 43.0]], "harmonics": [[1, 1.0]]}]
EOF
run error-synth-channel-null synth --scenario "$out/scenario-channel-null.json" \
    --out "$out/error-channel-null"
cat > "$out/scenario-no-channel.json" <<EOF
[{"label": "H", "seed": 13, "duration": 0.5,
  "profile": [[0, 43.0]], "harmonics": [[1, 1.0]]}]
EOF
run error-synth-no-channel synth --scenario "$out/scenario-no-channel.json" \
    --out "$out/error-no-channel"
cat > "$out/scenario-profile-string.json" <<EOF
[{"channel": "Z2", "label": "H", "seed": 13, "duration": 0.5,
  "profile": [["0", "43.0"]], "harmonics": [[1, 1.0]]}]
EOF
run error-synth-profile-string synth --scenario "$out/scenario-profile-string.json" \
    --out "$out/error-profile-string"
cat > "$out/scenario-fault-rate.json" <<EOF
[{"channel": "X1", "label": "D", "seed": 13, "duration": 0.5,
  "profile": [[0, 43.0]], "harmonics": [[1, 1.0]],
  "fault": {"kind": "outer_ring", "freq_ratio": 300, "amplitude": 0.5,
            "resonance_freq": 4000, "resonance_decay": 900}}]
EOF
run error-synth-fault-rate synth --scenario "$out/scenario-fault-rate.json" \
    --out "$out/error-fault-rate"
mkdir "$out/rot-nan"
cp "$out/campaign-odd/manifest.json" "$out/campaign-odd/A1_b1.wav" "$out/rot-nan/"
sed '2s/.*/nan/' "$out/campaign-odd/A1_b1.rot" > "$out/rot-nan/A1_b1.rot"
run error-extract-rot-nan extract --manifest "$out/rot-nan/manifest.json" \
    --channels A1_b1 --out "$out/rot-nan/features"
# B1_b1's WAV is missing: a data error. A1_b1, ahead of it in the list,
# runs to the end first, so its valid cache is left behind.
mkdir "$out/missing-wav"
cp "$out/campaign-odd/"{manifest.json,A1_b1.wav,A1_b1.rot,B1_b1.rot} \
    "$out/missing-wav/"
run error-extract-missing-wav extract --manifest "$out/missing-wav/manifest.json" \
    --channels A1_b1,B1_b1 --out "$out/missing-wav/features"
run synth-high-rate --seed 5 synth --default-campaign --fs 400000 --duration 0.2 \
    --out "$out/campaign-high-rate"
run error-extract-high-rate extract \
    --manifest "$out/campaign-high-rate/manifest.json" \
    --out "$out/campaign-high-rate/features"
# The 6.13 s campaign's manifest with its gearbox channels' component key
# misspelt: the first, A2_b3, is named.
mkdir "$out/manifest-typo"
sed 's/"component": "gearbox"/"componnet": "gearbox"/' \
    "$out/campaign-odd/manifest.json" > "$out/manifest-typo/manifest.json"
run error-extract-manifest-typo extract \
    --manifest "$out/manifest-typo/manifest.json" --out "$out/manifest-typo/features"
# The same manifest with A1_b1's axle a number and B1_b1's file null: data
# errors naming the file, the channel and the key.
mkdir "$out/manifest-axle-int" "$out/manifest-file-null"
sed 's/"axle": "A1"/"axle": 3/' "$out/campaign-odd/manifest.json" \
    > "$out/manifest-axle-int/manifest.json"
run error-extract-manifest-axle-int extract \
    --manifest "$out/manifest-axle-int/manifest.json" \
    --out "$out/manifest-axle-int/features"
sed 's/"file": "B1_b1.wav"/"file": null/' "$out/campaign-odd/manifest.json" \
    > "$out/manifest-file-null/manifest.json"
run error-extract-manifest-file-null extract \
    --manifest "$out/manifest-file-null/manifest.json" \
    --out "$out/manifest-file-null/features"
# The seed-5 6.13 s default campaign written out as a scenario file: each
# channel's id, its manifest record but the file, and its SynthConfig.
PYTHONPATH="$src" "${PYTHON:-python3}" - "$out/scenario-default.json" <<'PY'
import dataclasses, json, sys
from bearingsound import synth
channels = [{"channel": spec.channel_id, **dataclasses.asdict(spec.entry),
             **dataclasses.asdict(spec.config)}
            for spec in synth.default_scenario(5, duration=6.13)]
for channel in channels:
    del channel["file"]
with open(sys.argv[1], "w") as f:
    json.dump(channels, f)
PY
run synth-scenario-default synth --scenario "$out/scenario-default.json" \
    --out "$out/scenario-default-campaign"
# spelled_channel ID FS SECONDS ONE: a faulted channel whose rate, length,
# first harmonic amplitude and impact amplitude are spelled as given.
spelled_channel() {
    cat <<EOF
{"channel": "$1", "label": "D", "seed": 15, "fs": $2, "duration": $3,
 "profile": [[0, 43.0]], "harmonics": [[1, $4], [2, 0.4]], "noise_level": 0.2,
 "fault": {"kind": "outer_ring", "freq_ratio": 3.5, "amplitude": $4,
           "resonance_freq": 3000, "resonance_decay": 900, "jitter": 0.1}}
EOF
}
echo "[$(spelled_channel I1 16000 2 1), $(spelled_channel I2 16000.0 2.0 1.0)]" \
    > "$out/scenario-int-spelling.json"
run synth-scenario-int-spelling synth --scenario "$out/scenario-int-spelling.json" \
    --out "$out/scenario-int-spelling-campaign"
# A fault that is not a fault object: a data error each.
for fault in '{}' false 0 '[]' '""'; do
    case "$fault" in
        '{}') name=empty-object ;;
        '[]') name=empty-list ;;
        '""') name=empty-string ;;
        *) name=$fault ;;
    esac
    cat > "$out/scenario-fault-$name.json" <<EOF
[{"channel": "Y1", "label": "D", "seed": 13, "duration": 0.5,
  "profile": [[0, 43.0]], "harmonics": [[1, 1.0]], "fault": $fault}]
EOF
    run "error-synth-fault-$name" synth --scenario "$out/scenario-fault-$name.json" \
        --out "$out/error-fault-$name"
done

for name in seen-motor seen-gearbox unseen-A2b2 unseen-A1b1; do
    run "experiment-$name" --seed 5 experiment "$name" --data "$data" \
        --train-size 600 --test-size 200 --epochs 2 \
        --out "$out/experiments/$name"
done
run synth-first --seed 5 synth --default-campaign --duration 8 \
    --out "$out/synth-first"
run experiment-synth-first --seed 5 experiment seen-motor \
    --data "$out/synth-first" --train-size 200 --test-size 50 --epochs 1 \
    --out "$out/synth-first-results"
truncate -s -100 "$out/synth-first/features/A2_b2.abfc"
run experiment-stale-cache --seed 5 experiment seen-motor \
    --data "$out/synth-first" --train-size 200 --test-size 50 --epochs 1 \
    --out "$out/stale-cache-results"
run extract-coeffs10 extract --manifest "$data/manifest.json" --coeffs 10 \
    --out "$out/features-coeffs10"
run extract-mel24 extract --manifest "$data/manifest.json" --mel-channels 24 \
    --out "$out/features-mel24"

split=(--manifest "$data/manifest.json" --features "$data/features"
       --train-size 600 --test-size 200)
by_channel=(--train-channels A1_b1,B1_b1 --test-channels A2_b2,B2_b2)
run train-random --seed 5 train "${split[@]}" --epochs 2 \
    --out "$out/models/random.abmm"
run train-by-channel --seed 5 train "${split[@]}" "${by_channel[@]}" \
    --epochs 2 --out "$out/models/by-channel.abmm"
run eval-random --seed 5 eval "${split[@]}" --model "$out/models/random.abmm" \
    --out "$out/eval-random"
# 1000 test frames of the campaign's ~1740 gated ones: prediction runs in
# several 256-row blocks and a partial last one.
run eval-random-large --seed 5 eval --manifest "$data/manifest.json" \
    --features "$data/features" --train-size 600 --test-size 1000 \
    --model "$out/models/random.abmm" --out "$out/eval-random-large"
run eval-by-channel --seed 5 eval "${split[@]}" "${by_channel[@]}" \
    --model "$out/models/by-channel.abmm" --out "$out/eval-by-channel"
run eval-random-mel24 --seed 5 eval --manifest "$data/manifest.json" \
    --features "$out/features-mel24" --train-size 600 --test-size 200 \
    --model "$out/models/random.abmm" --out "$out/eval-random-mel24"
# The random model with its last std value, the file's last 8 bytes, set to
# NaN: a data error, and no report is written.
cp "$out/models/random.abmm" "$out/models/eval-nan-std.abmm"
printf '\0\0\0\0\0\0\370\177' | dd of="$out/models/eval-nan-std.abmm" bs=1 \
    seek=$(($(stat -c %s "$out/models/eval-nan-std.abmm") - 8)) conv=notrunc \
    status=none
run eval-nan-std --seed 5 eval "${split[@]}" \
    --model "$out/models/eval-nan-std.abmm" --out "$out/eval-nan-std"
# The same with that std value set to 0: a data error naming the model file.
cp "$out/models/random.abmm" "$out/models/eval-zero-std.abmm"
printf '\0\0\0\0\0\0\0\0' | dd of="$out/models/eval-zero-std.abmm" bs=1 \
    seek=$(($(stat -c %s "$out/models/eval-zero-std.abmm") - 8)) conv=notrunc \
    status=none
run eval-zero-std --seed 5 eval "${split[@]}" \
    --model "$out/models/eval-zero-std.abmm" --out "$out/eval-zero-std"
run scatter scatter --manifest "$data/manifest.json" \
    --features "$data/features" --pair 1:2 --out "$out/scatter.tsv"

# Usage errors: only their messages and exit codes are recorded.
run error-synth-no-source synth --out "$out/error-synth"
run error-synth-two-sources synth --default-campaign \
    --scenario "$out/missing.json" --out "$out/error-synth"
run error-train-size-zero train --manifest "$data/manifest.json" \
    --features "$data/features" --train-size 0 --out "$out/error.abmm"
run error-eval-by-channel-no-lists eval --manifest "$data/manifest.json" \
    --features "$data/features" --model "$out/models/random.abmm" \
    --train-channels A1_b1 --out "$out/error-eval"
run error-experiment-size-zero experiment seen-motor --data "$data" \
    --train-size 0 --test-size 50 --out "$out/error-experiment"
run error-synth-fs-zero synth --default-campaign --fs 0 --out "$out/error-synth"
run error-synth-fs-fraction synth --default-campaign --fs 25600.5 \
    --out "$out/error-synth"
run error-experiment-epochs-negative experiment seen-motor --epochs -1 \
    --data "$out/error-epochs-data"
run error-train-epochs-negative train --manifest "$data/manifest.json" \
    --features "$out/no-features" --epochs -1 --out "$out/error.abmm"
run error-extract-channels-empty extract --manifest "$data/manifest.json" \
    --channels "" --out "$out/error-features"
run error-extract-band-reversed extract --manifest "$data/manifest.json" \
    --band 45:42 --out "$out/error-features"
run error-synth-seed-negative-flag --seed -1 synth --default-campaign \
    --duration 1 --out "$out/error-seed-flag"
# 186 TiB per channel: the first allocation fails, so nothing is written.
run error-synth-huge-duration synth --default-campaign --duration 1e9 \
    --out "$out/error-huge"
# 0.05 s is 1280 samples, fewer than one 2048-sample frame.
run error-synth-subframe synth --default-campaign --duration 0.05 \
    --out "$out/error-subframe"
# Default campaigns whose channels fail their checks: at 1 and 100 Hz the
# top harmonic lies above fs/2 (usage errors), and 1e-6 s and 2e-5 s hold
# no frame (data errors).
run error-synth-fs-1 synth --default-campaign --fs 1 --out "$out/error-synth"
run error-synth-fs-100 synth --default-campaign --fs 100 --out "$out/error-synth"
run error-synth-duration-1e-6 synth --default-campaign --duration 1e-6 \
    --out "$out/error-synth"
run error-synth-duration-2e-5 synth --default-campaign --duration 2e-5 \
    --out "$out/error-synth"

echo "openblas-core  $core"
cd "$out"
find . -type f -print0 | LC_ALL=C sort -z | xargs -0 sha256sum \
    | sed 's|  \./|  |'
