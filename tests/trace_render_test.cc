// Renderer equivalence: Tracer::TextDumpOf and Tracer::ChromeJsonOf build
// their lines from std::to_chars appends, and must produce exactly the bytes
// of the snprintf renderers they replaced. The golden-trace test pins the
// text form on one scenario; the JSON has no golden, and a scenario only
// reaches the values a short run produces. This suite renders seeded random
// events through both the library and a copy of the printf-era renderers
// kept here, over the edges a format string handles for free: every phase and
// type, sequence numbers past the six-digit pad, times wider than the
// ten-column pad (and negative), names longer than their pad widths, flow ids
// with the top bit set, and -1 sentinels next to real (and other negative)
// values.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace tiger {
namespace {

// --- The printf-era renderers, verbatim but for names -----------------------

char LegacyPhaseChar(TracePhase phase) {
  switch (phase) {
    case TracePhase::kInstant:
      return 'I';
    case TracePhase::kBegin:
      return 'B';
    case TracePhase::kEnd:
      return 'E';
    case TracePhase::kComplete:
      return 'C';
  }
  return '?';
}

void LegacyAppendField(std::string* out, const char* name, int64_t value) {
  char buf[48];
  int n = std::snprintf(buf, sizeof(buf), " %s=%" PRId64, name, value);
  out->append(buf, static_cast<size_t>(n));
}

std::string LegacyTextDumpOf(const std::vector<TraceEvent>& events,
                             const std::vector<std::string>& track_names, uint64_t dropped) {
  std::string out;
  char line[160];
  if (dropped > 0) {
    int n = std::snprintf(line, sizeof(line),
                          "# WARNING: ring buffers dropped %" PRIu64
                          " event(s); dump is incomplete\n",
                          dropped);
    out.append(line, static_cast<size_t>(n));
  }
  for (const TraceEvent& event : events) {
    int n = std::snprintf(line, sizeof(line), "%06" PRIu64 " t=%-10" PRId64 " %-7s %c %-15s",
                          event.seq, event.when.micros(), track_names[event.track].c_str(),
                          LegacyPhaseChar(event.phase), Tracer::TypeName(event.type));
    out.append(line, static_cast<size_t>(n));
    if (event.phase == TracePhase::kComplete) {
      LegacyAppendField(&out, "dur", event.dur.micros());
    }
    if (event.flow != 0) {
      LegacyAppendField(&out, "flow", static_cast<int64_t>(event.flow));
    }
    if (event.args.viewer >= 0) {
      LegacyAppendField(&out, "viewer", event.args.viewer);
    }
    if (event.args.slot >= 0) {
      LegacyAppendField(&out, "slot", event.args.slot);
    }
    if (event.args.a != -1) {
      LegacyAppendField(&out, "a", event.args.a);
    }
    if (event.args.b != -1) {
      LegacyAppendField(&out, "b", event.args.b);
    }
    out.push_back('\n');
  }
  return out;
}

std::string LegacyChromeJsonOf(const std::vector<TraceEvent>& events,
                               const std::vector<std::string>& track_names,
                               const std::string& extra_events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[320];
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
                        "\"args\":{\"name\":\"tiger\"}}");
  out.append(buf, static_cast<size_t>(n));
  for (size_t t = 0; t < track_names.size(); ++t) {
    n = std::snprintf(buf, sizeof(buf),
                      ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":\"thread_name\","
                      "\"args\":{\"name\":\"%s\"}}",
                      t + 1, track_names[t].c_str());
    out.append(buf, static_cast<size_t>(n));
  }
  for (const TraceEvent& event : events) {
    const char* name = Tracer::TypeName(event.type);
    const char* cat = Tracer::TypeCategory(event.type);
    const size_t tid = static_cast<size_t>(event.track) + 1;
    switch (event.phase) {
      case TracePhase::kInstant:
        n = std::snprintf(buf, sizeof(buf),
                          ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%zu,\"ts\":%" PRId64
                          ",\"name\":\"%s\",\"cat\":\"%s\",\"s\":\"t\"",
                          tid, event.when.micros(), name, cat);
        break;
      case TracePhase::kBegin:
        n = std::snprintf(buf, sizeof(buf),
                          ",\n{\"ph\":\"b\",\"pid\":1,\"tid\":%zu,\"ts\":%" PRId64
                          ",\"name\":\"%s\",\"cat\":\"%s\",\"id\":\"0x%" PRIx64 "\"",
                          tid, event.when.micros(), name, cat, event.flow);
        break;
      case TracePhase::kEnd:
        n = std::snprintf(buf, sizeof(buf),
                          ",\n{\"ph\":\"e\",\"pid\":1,\"tid\":%zu,\"ts\":%" PRId64
                          ",\"name\":\"%s\",\"cat\":\"%s\",\"id\":\"0x%" PRIx64 "\"",
                          tid, event.when.micros(), name, cat, event.flow);
        break;
      case TracePhase::kComplete:
        n = std::snprintf(buf, sizeof(buf),
                          ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%" PRId64
                          ",\"dur\":%" PRId64 ",\"name\":\"%s\",\"cat\":\"%s\"",
                          tid, event.when.micros(), event.dur.micros(), name, cat);
        break;
    }
    out.append(buf, static_cast<size_t>(n));
    out += ",\"args\":{";
    bool first = true;
    auto arg = [&](const char* key, int64_t value) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      int m = std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64, key, value);
      out.append(buf, static_cast<size_t>(m));
    };
    arg("seq", static_cast<int64_t>(event.seq));
    if (event.args.viewer >= 0) {
      arg("viewer", event.args.viewer);
    }
    if (event.args.slot >= 0) {
      arg("slot", event.args.slot);
    }
    if (event.args.a != -1) {
      arg("a", event.args.a);
    }
    if (event.args.b != -1) {
      arg("b", event.args.b);
    }
    out += "}}";
  }
  out += extra_events;
  out += "\n]}\n";
  return out;
}

// --- Random events over the formatting edges --------------------------------

class EventGen {
 public:
  explicit EventGen(uint64_t seed) : rng_(seed) {}

  // Magnitudes spread across every width class: 0, 1-digit, around each pad
  // boundary, and up to the full 64-bit range.
  uint64_t Unsigned() {
    switch (Pick(6)) {
      case 0:
        return Pick(10);
      case 1:
        return Pick(1'000'000);  // Within the six-digit seq pad.
      case 2:
        return 999'990 + Pick(20);  // Across it.
      case 3:
        return 9'999'999'990ull + Pick(20);  // Across the ten-column time pad.
      case 4:
        return rng_() >> Pick(64);
      default:
        return ~uint64_t{0} - Pick(4);
    }
  }
  int64_t Signed() {
    const int64_t magnitude = static_cast<int64_t>(Unsigned() >> 1);
    return Pick(3) == 0 ? -magnitude : magnitude;
  }
  // An optional id: the -1 sentinel, another negative, zero, or a real value.
  int64_t Arg() {
    switch (Pick(5)) {
      case 0:
        return -1;
      case 1:
        return -2 - static_cast<int64_t>(Pick(1000));
      case 2:
        return 0;
      default:
        return static_cast<int64_t>(Unsigned() >> 1);
    }
  }

  TraceEvent Event(size_t tracks) {
    TraceEvent event;
    event.seq = Unsigned();
    event.when = TimePoint::FromMicros(Signed());
    event.track = static_cast<TraceTrackId>(Pick(tracks));
    event.type = static_cast<TraceEventType>(Pick(static_cast<size_t>(TraceEventType::kTypeCount)));
    event.phase = static_cast<TracePhase>(Pick(4));
    if (event.phase == TracePhase::kComplete) {
      event.dur = Duration::Micros(Signed());
    }
    // Flows are set on begin/end; a stray flow on another phase is rendered
    // by the text form, so generate some of those too.
    if (event.phase == TracePhase::kBegin || event.phase == TracePhase::kEnd || Pick(4) == 0) {
      event.flow = Unsigned();
    }
    event.args = TraceArgs{Arg(), Arg(), Arg(), Arg()};
    return event;
  }

  std::string Name() {
    static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789_-";
    std::string name;
    const size_t length = 1 + Pick(24);  // Shorter and longer than the 7-column pad.
    for (size_t i = 0; i < length; ++i) {
      name.push_back(kAlphabet[Pick(sizeof(kAlphabet) - 1)]);
    }
    return name;
  }

  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }

 private:
  std::mt19937_64 rng_;
};

struct Corpus {
  std::vector<TraceEvent> events;
  std::vector<std::string> track_names;
};

Corpus MakeCorpus(uint64_t seed, size_t count) {
  EventGen gen(seed);
  Corpus corpus;
  corpus.track_names = {"net", "cub0", "cub12", "disk1234567"};
  const size_t extra_tracks = 1 + gen.Pick(8);
  for (size_t t = 0; t < extra_tracks; ++t) {
    corpus.track_names.push_back(gen.Name());
  }
  // Every (type, phase) pair once, then random events.
  for (size_t type = 0; type < static_cast<size_t>(TraceEventType::kTypeCount); ++type) {
    for (size_t phase = 0; phase < 4; ++phase) {
      TraceEvent event = gen.Event(corpus.track_names.size());
      event.type = static_cast<TraceEventType>(type);
      event.phase = static_cast<TracePhase>(phase);
      corpus.events.push_back(event);
    }
  }
  while (corpus.events.size() < count) {
    corpus.events.push_back(gen.Event(corpus.track_names.size()));
  }
  return corpus;
}

TEST(TraceRenderTest, TextMatchesPrintfRendering) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Corpus corpus = MakeCorpus(seed, 2000);
    for (uint64_t dropped : {uint64_t{0}, uint64_t{1}, seed * 1'000'003, ~uint64_t{0}}) {
      ASSERT_EQ(Tracer::TextDumpOf(corpus.events, corpus.track_names, dropped),
                LegacyTextDumpOf(corpus.events, corpus.track_names, dropped))
          << "seed " << seed << " dropped " << dropped;
    }
  }
}

TEST(TraceRenderTest, ChromeJsonMatchesPrintfRendering) {
  const std::string extra = ",\n{\"ph\":\"C\",\"pid\":1,\"ts\":5,\"name\":\"x\",\"args\":{\"v\":1}}";
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Corpus corpus = MakeCorpus(seed, 2000);
    for (const std::string& splice : {std::string(), extra}) {
      ASSERT_EQ(Tracer::ChromeJsonOf(corpus.events, corpus.track_names, splice),
                LegacyChromeJsonOf(corpus.events, corpus.track_names, splice))
          << "seed " << seed;
    }
  }
}

// The corpus really reaches the edges the suite claims to cover.
TEST(TraceRenderTest, CorpusCoversTheFormattingEdges) {
  const Corpus corpus = MakeCorpus(1, 2000);
  bool wide_seq = false, wide_time = false, negative_time = false, high_flow = false;
  bool sentinel_next_to_value = false, other_negative = false;
  bool phases[4] = {};
  for (const TraceEvent& e : corpus.events) {
    wide_seq |= e.seq > 999'999;
    wide_time |= e.when.micros() > 9'999'999'999;
    negative_time |= e.when.micros() < 0;
    high_flow |= (e.flow >> 63) != 0;
    sentinel_next_to_value |= e.args.a == -1 && e.args.b >= 0;
    other_negative |= e.args.a < -1;
    phases[static_cast<size_t>(e.phase)] = true;
  }
  EXPECT_TRUE(wide_seq);
  EXPECT_TRUE(wide_time);
  EXPECT_TRUE(negative_time);
  EXPECT_TRUE(high_flow);
  EXPECT_TRUE(sentinel_next_to_value);
  EXPECT_TRUE(other_negative);
  for (bool seen : phases) {
    EXPECT_TRUE(seen);
  }
  size_t long_names = 0;
  for (const std::string& name : corpus.track_names) {
    long_names += name.size() > 7 ? 1 : 0;
  }
  EXPECT_GT(long_names, 0u);
  // LIVELOCK_DEADMAN is the one type name longer than its 15-column pad.
  EXPECT_GT(std::string(Tracer::TypeName(TraceEventType::kLivelockDeadman)).size(), 15u);
}

}  // namespace
}  // namespace tiger
