// The line codec and every record format built on it:
//   * the escaper, formatter and field reader on their own;
//   * every byte 0x01-0x1F through each writer/reader pair, round trip
//     exact and no rendered line holding a byte below 0x20;
//   * golden bytes for each line format, so a format cannot drift across
//     commits unnoticed (CI's `cmp` steps only compare two runs of one
//     build).
#include "robust/line_codec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign/campaign_journal.hpp"
#include "mc/trace_file.hpp"
#include "obs/export.hpp"
#include "obs/flight/prof.hpp"
#include "obs/flight/span_export.hpp"
#include "serve/protocol.hpp"

namespace pftk {
namespace {

using robust::format_double;
using robust::json_escape;
using robust::JsonLine;

std::string control_bytes() {
  std::string s;
  for (int c = 0x01; c < 0x20; ++c) {
    s += static_cast<char>(c);
  }
  return s;
}

/// Every line of `text` is free of bytes below 0x20.
void expect_clean_lines(const std::string& text) {
  for (const char c : text) {
    if (c != '\n') {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20) << text;
    }
  }
}

// ---- the three pieces --------------------------------------------------

TEST(LineCodec, EscaperUsesTheJournalRules) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te\rf"), "a\\\"b\\\\c\\nd\\te\\rf");
  EXPECT_EQ(json_escape(std::string_view("\0\x01\x1f", 3)), "\\u0000\\u0001\\u001f");
  EXPECT_EQ(json_escape("caf\xc3\xa9 \x7f/"), "caf\xc3\xa9 \x7f/");
}

TEST(LineCodec, FormatterIsPercent17gAndRoundTrips) {
  std::vector<double> values = {0.0, -0.0, 5e-324, -2.2250738585072009e-308,
                                std::numeric_limits<double>::max(), 0.1, 1.0 / 3};
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20000; ++i) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    values.push_back(std::bit_cast<double>(z ^ (z >> 31)));
  }
  for (const double v : values) {
    if (std::isnan(v)) {
      continue;  // payloads do not survive text; the golden table pins nan/-nan
    }
    char expected[40];
    std::snprintf(expected, sizeof expected, "%.17g", v);
    const std::string text = format_double(v);
    ASSERT_EQ(text, expected);
    const double back = JsonLine("{\"v\":" + text + "}").number("v");
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(v)) << text;
  }
}

TEST(LineCodec, ReaderDecodesStringsNumbersArraysAndObjects) {
  const JsonLine json(
      " { \"s\" : \"q\\\"b\\\\s\\/n\\n\\u0001\\u00e9\\u20ac\" , \"d\":-1.5e3,"
      "\"u\":18446744073709551615, \"i\":-7, \"inf\":-inf, \"a\":[1, 2.5 ,3],"
      "\"e\":[], \"o\":[{\"k\":\"x\",\"n\":1},{\"k\":\"y\",\"n\":2}], \"s\":\"dup\"}\r");
  EXPECT_EQ(json.string("s"), "q\"b\\s/n\n\x01\xc3\xa9\xe2\x82\xac");  // first wins
  EXPECT_EQ(json.number("d"), -1500.0);
  EXPECT_EQ(json.integer<std::uint64_t>("u"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(json.integer<int>("i"), -7);
  EXPECT_EQ(json.number("inf"), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(json.numbers("a"), (std::vector<double>{1.0, 2.5, 3.0}));
  EXPECT_EQ(json.integers<std::uint32_t>("e"), std::vector<std::uint32_t>{});
  ASSERT_EQ(json.objects("o").size(), 2u);
  EXPECT_EQ(json.objects("o")[1].string("k"), "y");
  EXPECT_EQ(json.objects("o")[1].integer<int>("n"), 2);
}

TEST(LineCodec, ReaderRefusesWhatItCannotStoreExactly) {
  const JsonLine json(
      "{\"big\":18446744073709551616,\"neg\":-1,\"frac\":1.5,\"exp\":1e3,"
      "\"word\":true,\"s\":\"x\",\"a\":[1,true],\"wide\":4294967296}");
  EXPECT_THROW((void)json.integer<std::uint64_t>("big"), std::invalid_argument);
  EXPECT_THROW((void)json.integer<std::uint64_t>("neg"), std::invalid_argument);
  EXPECT_THROW((void)json.integer<int>("frac"), std::invalid_argument);
  EXPECT_THROW((void)json.integer<int>("exp"), std::invalid_argument);
  EXPECT_THROW((void)json.number("word"), std::invalid_argument);
  EXPECT_THROW((void)json.number("s"), std::invalid_argument);
  EXPECT_THROW((void)json.string("frac"), std::invalid_argument);
  EXPECT_THROW((void)json.numbers("a"), std::invalid_argument);
  EXPECT_THROW((void)json.integer<std::uint32_t>("wide"), std::invalid_argument);
  EXPECT_THROW((void)json.number("absent"), std::invalid_argument);
}

TEST(LineCodec, ReaderRefusesMalformedLines) {
  for (const char* bad : {
           "", "not json", "{\"a\":1", "{\"a\":1}{", "{\"a\":1}x", "{\"a\":}", "{\"a\":1,}",
           "{a:1}", "{\"a\":\"open}", "{\"a\":\"\\q\"}", "{\"a\":\"\\u12\"}",
           "{\"a\":\"\\ud800\"}", "{\"a\":[[1]]}", "{\"a\":[{\"b\":[1]}]}",
           "{\"a\":[1,{\"b\":1}]}", "{\"a\":{\"b\":1}}", "[1]"}) {
    EXPECT_THROW((void)JsonLine(bad), std::invalid_argument) << bad;
  }
}

// ---- control bytes through every writer/reader pair ----------------------

TEST(LineCodec, ControlBytesRoundTripThroughObsJsonl) {
  const std::string ctl = control_bytes();
  obs::ObsBundle bundle;
  bundle.source = "x" + ctl + "y";
  obs::MetricValue mv;
  mv.name = "pftk_ctl";
  mv.help = ctl;
  bundle.metrics.metrics.push_back(mv);
  obs::SpanRecord span;
  span.name = "item";
  span.outcome = ctl;
  span.phases.push_back({"attempt", 0.5, ctl});
  bundle.spans.push_back(span);

  std::stringstream stream;
  obs::write_obs_jsonl(stream, bundle);
  expect_clean_lines(stream.str());
  obs::ObsReadReport report;
  const obs::ObsBundle back = obs::read_obs_jsonl(stream, &report);
  EXPECT_TRUE(report.clean()) << report.first_error;
  EXPECT_EQ(report.lines_total, 3u);
  EXPECT_EQ(back.source, bundle.source);
  ASSERT_EQ(back.metrics.metrics.size(), 1u);
  EXPECT_EQ(back.metrics.metrics[0].help, ctl);
  ASSERT_EQ(back.spans.size(), 1u);
  EXPECT_EQ(back.spans[0].outcome, ctl);
  ASSERT_EQ(back.spans[0].phases.size(), 1u);
  EXPECT_EQ(back.spans[0].phases[0].detail, ctl);
}

TEST(LineCodec, ControlBytesRoundTripThroughSpanExports) {
  const std::string ctl = control_bytes();
  obs::flight::DrainedSpans drained;
  drained.spans.push_back({ctl, 1, 10, 20, 3});
  drained.spans.push_back({"plain" + ctl, 2, 15, 15, 0});
  drained.threads = 2;

  const std::string jsonl = obs::flight::render_spans_jsonl(drained, ctl);
  expect_clean_lines(jsonl);
  const std::string chrome = obs::flight::render_chrome_json(drained, ctl);
  expect_clean_lines(chrome);

  const std::string path =
      (std::filesystem::temp_directory_path() / "pftk_codec_spans.jsonl").string();
  obs::flight::save_spans_file(path, drained, ctl);
  const obs::flight::DrainedSpans back = obs::flight::load_spans_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.spans.size(), 2u);
  EXPECT_EQ(back.spans[0].name, ctl);
  EXPECT_EQ(back.spans[1].name, "plain" + ctl);

  // prof --json renders the same names; its records must stay one per line.
  std::ostringstream prof;
  obs::flight::write_prof_json(prof, obs::flight::profile_spans(drained));
  expect_clean_lines(prof.str());
  EXPECT_NE(prof.str().find(json_escape(ctl)), std::string::npos);
}

TEST(LineCodec, ControlBytesRoundTripThroughTheJournal) {
  exp::campaign::JournalEntry entry;
  entry.index = 0;
  entry.key = "k";
  entry.ok = false;
  entry.error = control_bytes();
  const std::string line = entry.to_json();
  expect_clean_lines(line);
  EXPECT_EQ(exp::campaign::JournalEntry::from_json(line).error, entry.error);
}

// ---- golden bytes: a format changes only when these literals do ----------

TEST(LineCodecGolden, JournalEntries) {
  exp::campaign::JournalEntry ok;
  ok.index = 3;
  ok.key = "manic->alps/s7/full";
  ok.ok = true;
  ok.attempts = 2;
  ok.metrics.packets_sent = 123456;
  ok.metrics.send_rate = 41.152;
  ok.metrics.p = 0.0123456789;
  ok.metrics.rtt = 0.2345;
  ok.metrics.t0 = 1.5;
  ok.metrics.predicted = 1e9 / 3;
  ok.metrics.forward_faults = {1, 2, 3, 4, 5, 6};
  exp::campaign::JournalEntry failed;
  failed.index = 4;
  failed.key = "void->ganef/s8/approx";
  failed.ok = false;
  failed.attempts = 3;
  failed.failure_class = exp::campaign::FailureClass::kTransient;
  failed.failure_kind = exp::campaign::FailureKind::kWatchdogStall;
  failed.error = "stalled: \"no progress\"\\ at\tt=5\r\nretry";

  EXPECT_EQ(ok.to_json(),
            R"({"item":3,"key":"manic->alps/s7/full","status":"ok","attempts":2,"packets":123456,"send_rate":41.152000000000001,"p":0.0123456789,"rtt":0.23449999999999999,"t0":1.5,"predicted":333333333.33333331,"ff":[1,2,3,4,5,6],"rf":[0,0,0,0,0,0]})");
  EXPECT_EQ(failed.to_json(),
            R"({"item":4,"key":"void->ganef/s8/approx","status":"failed","attempts":3,"class":"transient","kind":"watchdog","error":"stalled: \"no progress\"\\ at\tt=5\r\nretry"})");
}

TEST(LineCodecGolden, ObsBundle) {
  obs::MetricsRegistry registry;
  const obs::MetricId sent = registry.counter("pftk_sent_total", "segments sent");
  const obs::MetricId peak = registry.gauge("pftk_peak", "heap \"high\" water\\mark");
  const obs::MetricId lat = registry.histogram("pftk_lat_seconds", "latency", {0.25, 0.5, 1.0});
  registry.freeze(1);
  auto& shard = registry.shard(0);
  shard.add(sent, 42.0);
  shard.set(peak, 0.1);
  for (const double v : {0.125, 0.25, 0.75, 3.0}) {
    shard.observe(lat, v);
  }
  obs::ObsBundle bundle;
  bundle.source = "campaign";
  bundle.metrics = registry.snapshot();
  bundle.events.push_back({0.5, obs::ConnEventKind::kSlowStartEnter, 1.0, 1e9});
  bundle.events_dropped = 3;
  obs::SpanRecord span;
  span.name = "a->b/s1";
  span.outcome = "ok";
  span.attempts = 2;
  span.total_seconds = 0.25;
  span.backoff_seconds = 1.0 / 3;
  span.journal_writes = 1;
  span.journal_bytes = 120;
  span.phases.push_back({"backoff", 0.125, "before attempt 2"});
  span.phases.push_back({"attempt", 0.1, "ok"});
  bundle.spans.push_back(span);
  std::ostringstream os;
  obs::write_obs_jsonl(os, bundle);

  EXPECT_EQ(os.str(),
            R"({"schema":"pftk-obs/1","kind":"header","source":"campaign","events_dropped":3}
{"kind":"metric","type":"counter","name":"pftk_sent_total","help":"segments sent","value":42}
{"kind":"metric","type":"gauge","name":"pftk_peak","help":"heap \"high\" water\\mark","value":0.10000000000000001}
{"kind":"metric","type":"histogram","name":"pftk_lat_seconds","help":"latency","bounds":[0.25,0.5,1],"buckets":[2,0,1,1],"count":4,"sum":4.125,"rejected":0}
{"kind":"event","t":0.5,"event":"slow_start_enter","value":1,"aux":1000000000}
{"kind":"span","name":"a->b/s1","outcome":"ok","attempts":2,"total_s":0.25,"backoff_s":0.33333333333333331,"journal_writes":1,"journal_bytes":120,"phases":[{"phase":"backoff","s":0.125,"detail":"before attempt 2"},{"phase":"attempt","s":0.10000000000000001,"detail":"ok"}]}
)");
}

TEST(LineCodecGolden, SpansJsonl) {
  obs::flight::DrainedSpans drained;
  drained.spans.push_back({"serve.accept", 1, 1000, 2500, 7});
  drained.spans.push_back(
      {"campaign.item", 2, 18446744073709551000ULL, 18446744073709551615ULL, 0});
  drained.dropped = 2;
  drained.threads = 2;

  EXPECT_EQ(obs::flight::render_spans_jsonl(drained, "serve"),
            R"({"schema":"pftk-spans/1","kind":"header","source":"serve","spans":2,"dropped":2,"threads":2}
{"kind":"span","name":"serve.accept","tid":1,"begin_ns":1000,"end_ns":2500,"arg":7}
{"kind":"span","name":"campaign.item","tid":2,"begin_ns":18446744073709551000,"end_ns":18446744073709551615,"arg":0}
)");
}

TEST(LineCodecGolden, McTrace) {
  mc::CounterexampleTrace trace;
  trace.config.window = 0.1;
  trace.config.one_way_delay = 1.0 / 3;
  trace.config.fault_schedule = "blackout@5+600";
  trace.config.ack_loss = true;
  trace.config.tie_width = 2;
  trace.config.tie_choices = 3;
  trace.check = "window.flight_cap";
  trace.message = "in flight 9 > Wm 8";
  trace.choices = {{mc::ChoiceKind::kForwardLoss, 1, 2}, {mc::ChoiceKind::kTieBreak, 0, 3}};

  EXPECT_EQ(mc::serialize_trace(trace), R"(pftk-mc/1
packets=6
window=0.10000000000000001
ack_every=2
one_way_delay=0.33333333333333331
min_rto=1
time_cap=600
faults=blackout@5+600
ack_loss=1
loss_choices=8
tie_width=2
tie_choices=3
depth=64
seed=1
check=window.flight_cap
message=in flight 9 > Wm 8
digest=243f6a8885a308d313198a2e03707344
choices=F1 T0/3
)");
}

TEST(LineCodecGolden, ServeOkLineAndNumbers) {
  EXPECT_EQ(serve::format_ok("c0-1", {{"rate", serve::format_number(1234.5678)},
                                      {"degraded", "1"}}),
            "OK c0-1 rate=1234.5678 degraded=1");

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, std::string>> table = {
      {0.0, "0"},
      {-0.0, "-0"},
      {1.0, "1"},
      {0.1, "0.10000000000000001"},
      {1.0 / 3, "0.33333333333333331"},
      {-2.5, "-2.5"},
      {1e21, "1e+21"},
      {1e-5, "1.0000000000000001e-05"},
      {123456789.0, "123456789"},
      {12345678901234567890.0, "1.2345678901234567e+19"},
      {1e300, "1.0000000000000001e+300"},
      {2.2250738585072014e-308, "2.2250738585072014e-308"},
      {5e-324, "4.9406564584124654e-324"},
      {std::numeric_limits<double>::max(), "1.7976931348623157e+308"},
      {kInf, "inf"},
      {-kInf, "-inf"},
      {kNaN, "nan"},
      {-kNaN, "-nan"},
  };
  for (const auto& [value, expected] : table) {
    EXPECT_EQ(serve::format_number(value), expected);
  }
}

}  // namespace
}  // namespace pftk
