// Seeded mutation fuzzer over every decoder a pool pipe can reach: framing,
// run configs, result payloads, run trace captures, and run checkpoints.
// Each decoder starts from valid encodings, which are then truncated,
// bit-flipped, spliced together and given hostile length fields. A decoder
// must return or throw a std::exception — never crash, read out of bounds or
// allocate without bound. The seed is fixed, so a failure replays exactly;
// the ASan/UBSan build runs the same cases. The seed encodings themselves
// are pinned by FNV-1a (WirePins.*).
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/executor.h"
#include "campaign/serialize.h"
#include "core/threshold_lut.h"
#include "util/bits.h"
#include "util/rng.h"

namespace dav {
namespace {

/// Mutated inputs per decoder (the whole suite takes about a second in a
/// release build).
constexpr int kIterations = 20000;

/// Values a corrupted length or count field is likely to hold.
constexpr std::uint64_t kHostile[] = {
    0,          1,           0x7F,        0xFF,
    0xFFFF,     0x7FFFFFFF,  0xFFFFFFFF,  0x100000000ull,
    0x7FFFFFFFFFFFFFFFull,   ~0ull};

/// One fuzz input: a random seed put through one to four mutations.
std::string mutate(Rng& rng, const std::vector<std::string>& seeds) {
  std::string s = seeds[rng.uniform_index(seeds.size())];
  const int rounds = 1 + static_cast<int>(rng.uniform_index(4));
  for (int k = 0; k < rounds; ++k) {
    switch (rng.uniform_index(4)) {
      case 0:  // truncate
        if (!s.empty()) s.resize(rng.uniform_index(s.size()));
        break;
      case 1:  // flip one bit
        if (!s.empty()) {
          s[rng.uniform_index(s.size())] ^=
              static_cast<char>(1u << rng.uniform_index(8));
        }
        break;
      case 2: {  // splice: a prefix of this input onto a suffix of another
        const std::string& other = seeds[rng.uniform_index(seeds.size())];
        const std::size_t cut = rng.uniform_index(s.size() + 1);
        const std::size_t from = rng.uniform_index(other.size() + 1);
        s = s.substr(0, cut) + other.substr(from);
        break;
      }
      default: {  // overwrite a 4- or 8-byte little-endian field
        const std::size_t width = rng.uniform_index(2) == 0 ? 4 : 8;
        if (s.size() < width) break;
        const std::size_t at = rng.uniform_index(s.size() - width + 1);
        const std::uint64_t v =
            kHostile[rng.uniform_index(sizeof(kHostile) / sizeof(*kHostile))];
        for (std::size_t b = 0; b < width; ++b) {
          s[at + b] = static_cast<char>((v >> (8 * b)) & 0xFF);
        }
        break;
      }
    }
  }
  return s;
}

/// Feed `decode` kIterations mutations of `seeds` (and the seeds
/// themselves, which must decode). A non-std exception escapes and fails the
/// test; a crash or sanitizer report ends it. An allocation failure on these
/// small inputs means a decoder sized a buffer from an unchecked count.
void fuzz(std::uint64_t seed, const std::vector<std::string>& seeds,
          const std::function<void(const std::string&)>& decode) {
  for (const std::string& s : seeds) EXPECT_NO_THROW(decode(s));
  Rng rng(seed);
  int threw = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = mutate(rng, seeds);
    try {
      decode(input);
    } catch (const std::bad_alloc&) {
      ADD_FAILURE() << "unbounded allocation decoding input " << i << " ("
                    << input.size() << " bytes)";
    } catch (const std::length_error&) {
      ADD_FAILURE() << "unbounded allocation decoding input " << i << " ("
                    << input.size() << " bytes)";
    } catch (const std::exception&) {
      ++threw;
    }
  }
  // Most mutations must be caught as malformed, or the fuzzer is not
  // reaching past the first checks.
  EXPECT_GT(threw, kIterations / 4);
}

ThresholdLut trained_lut() {
  ThresholdLut lut;
  VehicleState s;
  s.v = 12.5;
  lut.observe(s, {0.25, 0.125, 1.0 / 3.0});
  return lut;
}

std::vector<std::string> config_seeds(const ThresholdLut& lut) {
  RunConfig plain;
  plain.run_seed = 42;
  RunConfig detector;
  detector.scenario = ScenarioId::kGhostCutIn;
  detector.run_seed = 77;
  detector.record_traces = true;
  detector.online_lut = &lut;
  detector.mitigation = MitigationPolicy::kRestartRecovery;
  detector.fault.kind = FaultModelKind::kTransient;
  detector.fault.target_dyn_index = 4242;
  detector.trace.dir = "/tmp/traces";
  detector.trace.label = "fuzz";
  RunConfig sensor = plain;
  sensor.fusion.enabled = true;
  sensor.sensor_fault.model = SensorFaultModel::kCameraBlackout;
  sensor.sensor_fault.onset_tick = 30;
  sensor.sensor_fault.duration_ticks = 10;
  sensor.checkpoint.enabled = true;
  return {serialize_run_config(plain), serialize_run_config(detector),
          serialize_run_config(sensor)};
}

RunResult sample_result() {
  RunResult r;
  r.run_seed = 9;
  r.outcome = FaultOutcome::kSdc;
  r.trajectory.push({1.0, 2.0});
  r.trajectory.push({3.0, 4.0});
  r.recovery.events.push_back(RecoveryEvent{});
  r.observations.push_back(StepObservation{});
  r.cvip_trace = {42.0, 7.5};
  r.acting_agent_trace = {0, 1, 0};
  r.sensor_fault.model = SensorFaultModel::kGpsDrift;
  r.sensor_corruptions = 3;
  r.recovery.sensor_events.push_back(SensorDegradeEvent{});
  return r;
}

std::vector<std::string> payload_seeds() {
  RunConfig cfg;
  cfg.run_seed = 5;
  return {make_result_payload(true, {}, sample_result()),
          make_result_payload(false, "worker died: signal 11",
                              harness_error_result(cfg))};
}

RunTraceCapture sample_capture() {
  RunTraceCapture cap;
  cap.plan_index = 17;
  cap.capture.valid = true;
  cap.capture.dt = 0.05;
  cap.capture.dropped = 2;
  cap.capture.histograms.at(obs::Stage::kTick).add(4096);
  cap.capture.histograms.at(obs::Stage::kWorldStep).add(300);
  for (std::uint32_t t = 0; t < 3; ++t) {
    obs::TraceEvent ev;
    ev.tick = t;
    ev.id = static_cast<std::uint16_t>(t + 1);
    ev.value = 0.5 * t;
    cap.capture.instants.push_back(ev);
  }
  return cap;
}

std::vector<std::string> checkpoint_seeds() {
  RunCheckpoint bare;
  RunCheckpoint full;
  full.tick = 25;
  full.has_detector = true;
  full.has_recovery = true;
  full.recovery.restart_ticks = {3, 9};
  full.partial_result = serialize_run_result(sample_result());
  full.has_cameras = true;
  for (auto& cam : full.cameras) cam.assign(48, 0x5A);
  return {serialize_run_checkpoint(bare), serialize_run_checkpoint(full)};
}

TEST(DecoderFuzz, FrameSplitter) {
  // Pool-shaped frames: a request's config, a response's result payload,
  // and two frames back to back on one stream.
  const ThresholdLut lut = trained_lut();
  const std::string config = frame_message(config_seeds(lut)[1]);
  const std::string payload = frame_message(payload_seeds()[0]);
  fuzz(1, {config, payload, config + payload},
       [](const std::string& bytes) {
         const FrameSplit fs = try_unframe(bytes);
         if (fs.status == FrameSplit::Status::kOk) {
           ASSERT_LE(fs.consumed, bytes.size());
           ASSERT_EQ(fs.consumed, fs.payload.size() + 12);
         } else {
           throw std::runtime_error("no frame");  // counted as rejected
         }
       });
}

TEST(DecoderFuzz, RunConfigs) {
  const ThresholdLut lut = trained_lut();
  fuzz(3, config_seeds(lut),
       [](const std::string& bytes) { deserialize_run_config(bytes); });
}

TEST(DecoderFuzz, ResultPayloads) {
  fuzz(4, payload_seeds(),
       [](const std::string& bytes) { parse_result_payload(bytes); });
}

TEST(DecoderFuzz, TelemetryCaptures) {
  const std::string blob = encode_run_capture(sample_capture());
  fuzz(5, {blob, encode_run_capture(RunTraceCapture{})},
       [](const std::string& bytes) { decode_run_capture(bytes); });
}

TEST(DecoderFuzz, RunCheckpoints) {
  fuzz(8, checkpoint_seeds(),
       [](const std::string& bytes) { deserialize_run_checkpoint(bytes); });
}

// --- byte pins ---------------------------------------------------------------
// FNV-1a pins of every seed encoding above. An encoder and its decoder share
// one field walk, so these pins are what notice a layout change: update one
// only together with the version constant of the layout it pins.

std::uint64_t fnv_of(const std::string& b) {
  return fnv1a64(b.data(), b.size());
}

TEST(WirePins, RunConfigs) {
  const ThresholdLut lut = trained_lut();
  const std::vector<std::string> seeds = config_seeds(lut);
  EXPECT_EQ(fnv_of(seeds[0]), 0x43f8786786ae1defULL);  // plain
  // LUT detector + trace options
  EXPECT_EQ(fnv_of(seeds[1]), 0x12058844cd3c6ad9ULL);
  // sensor + fusion + checkpoint extensions
  EXPECT_EQ(fnv_of(seeds[2]), 0x67eeed0729276ec2ULL);
  EXPECT_EQ(run_config_digest(deserialize_run_config(seeds[0]).cfg),
            0x311b2f3ce3becc44ULL);
  EXPECT_EQ(run_config_digest(deserialize_run_config(seeds[2]).cfg),
            0x703c190a2f94cd18ULL);
}

TEST(WirePins, ResultPayloads) {
  const std::vector<std::string> seeds = payload_seeds();
  EXPECT_EQ(fnv_of(seeds[0]), 0x8b3f0aa00d1a9bf3ULL);  // sensor extension
  EXPECT_EQ(fnv_of(seeds[1]), 0x1a13de27a17fd5ecULL);  // failure payload
}

TEST(WirePins, Telemetry) {
  EXPECT_EQ(fnv_of(encode_run_capture(sample_capture())),
            0xc7e7fb5da5990fd2ULL);
  EXPECT_EQ(fnv_of(encode_run_capture(RunTraceCapture{})),
            0x6a83ca37bf434fbdULL);
}

TEST(WirePins, RunCheckpoints) {
  // Taken at kRunCheckpointVersion 2.
  const std::vector<std::string> seeds = checkpoint_seeds();
  EXPECT_EQ(fnv_of(seeds[0]), 0xb227bd38e2973851ULL);  // bare
  EXPECT_EQ(fnv_of(seeds[1]), 0xc39acb0a2299a6f0ULL);  // every section
}

TEST(DecoderFuzz, ThresholdLutRejectsImplausibleBinCounts) {
  // The LUT travels as text inside a run config; a corrupted bin count must
  // be refused before it sizes the tables.
  std::ostringstream text;
  trained_lut().save(text);
  std::string bad = text.str();
  const std::size_t at = bad.find(" 12\n");  // the speed axis bin count
  ASSERT_NE(at, std::string::npos);
  for (const char* bins : {" 99999999\n", " 0\n", " -5\n"}) {
    std::string s = bad;
    s.replace(at, 4, bins);
    std::istringstream in(s);
    EXPECT_THROW(ThresholdLut::load(in), std::runtime_error) << bins;
  }
}

}  // namespace
}  // namespace dav
