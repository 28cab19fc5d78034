/**
 * @file
 * Tests for the observability layer: the per-thread ring tracer
 * (wrap/overflow accounting, deterministic merge across worker
 * counts, rings freed as worker threads exit), the Perfetto JSON schema of emitted traces, the
 * event-vs-stats reconciliation, the streaming JSON writer, and the
 * machine-readable stats exporters.
 *
 * The trace-schema tests parse the emitted JSON with a minimal
 * recursive-descent parser (below) rather than eyeballing substrings,
 * so a malformed artifact cannot slip through as "contains the right
 * words".
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/perfetto.hh"
#include "obs/tracer.hh"
#include "sasos.hh"
#include "farm/campaign.hh"
#include "sim/parallel.hh"
#include "workload/address_stream.hh"

#include "temp_path.hh"

using namespace sasos;

namespace
{

// ---------------------------------------------------------------------
// A minimal JSON value + parser, just enough to validate our own
// artifacts. Throws std::runtime_error on malformed input.

struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> members;

    const JsonValue &
    at(const std::string &key) const
    {
        auto it = members.find(key);
        if (it == members.end())
            throw std::runtime_error("missing key " + key);
        return it->second;
    }

    bool has(const std::string &key) const { return members.count(key); }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue value = parseValue();
        skipWs();
        if (pos_ != text_.size())
            throw std::runtime_error("trailing garbage");
        return value;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            throw std::runtime_error("unexpected end");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected ") + c);
        ++pos_;
    }

    JsonValue
    parseValue()
    {
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return parseString();
          case 't':
          case 'f':
            return parseBool();
          case 'n':
            return parseNull();
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        JsonValue value;
        value.kind = JsonValue::Object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return value;
        }
        while (true) {
            JsonValue key = parseString();
            expect(':');
            value.members[key.text] = parseValue();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return value;
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue value;
        value.kind = JsonValue::Array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return value;
        }
        while (true) {
            value.items.push_back(parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return value;
        }
    }

    JsonValue
    parseString()
    {
        JsonValue value;
        value.kind = JsonValue::String;
        expect('"');
        while (true) {
            if (pos_ >= text_.size())
                throw std::runtime_error("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return value;
            if (static_cast<unsigned char>(c) < 0x20)
                throw std::runtime_error("raw control char in string");
            if (c != '\\') {
                value.text.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                throw std::runtime_error("dangling escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': value.text.push_back('"'); break;
              case '\\': value.text.push_back('\\'); break;
              case '/': value.text.push_back('/'); break;
              case 'n': value.text.push_back('\n'); break;
              case 't': value.text.push_back('\t'); break;
              case 'r': value.text.push_back('\r'); break;
              case 'b': value.text.push_back('\b'); break;
              case 'f': value.text.push_back('\f'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    throw std::runtime_error("short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        throw std::runtime_error("bad \\u digit");
                }
                value.text.push_back(static_cast<char>(code));
                break;
              }
              default:
                throw std::runtime_error("unknown escape");
            }
        }
    }

    JsonValue
    parseBool()
    {
        JsonValue value;
        value.kind = JsonValue::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            value.boolean = true;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            value.boolean = false;
            pos_ += 5;
        } else {
            throw std::runtime_error("bad literal");
        }
        return value;
    }

    JsonValue
    parseNull()
    {
        if (text_.compare(pos_, 4, "null") != 0)
            throw std::runtime_error("bad literal");
        pos_ += 4;
        JsonValue value;
        value.kind = JsonValue::Null;
        return value;
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            throw std::runtime_error("bad number");
        JsonValue value;
        value.kind = JsonValue::Number;
        value.number = std::stod(text_.substr(start, pos_ - start));
        return value;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

// ---------------------------------------------------------------------
// Helpers.

/** RAII guard: whatever a test does, tracing is off afterwards. */
struct TracingGuard
{
    ~TracingGuard()
    {
        obs::stopTracing();
        obs::setThreadId(0);
    }
};

core::System &
setupSystem(std::unique_ptr<core::System> &sys, core::ModelKind kind,
            u64 pages = 64)
{
    sys = std::make_unique<core::System>(core::SystemConfig::forModel(kind));
    const os::DomainId app = sys->kernel().createDomain("app");
    const vm::SegmentId seg = sys->kernel().createSegment("heap", pages);
    sys->kernel().attach(app, seg, vm::Access::ReadWrite);
    sys->kernel().switchTo(app);
    return *sys;
}

u64
countKind(const std::vector<obs::Event> &events, obs::EventKind kind)
{
    u64 n = 0;
    for (const obs::Event &event : events)
        n += event.kind == kind;
    return n;
}

std::vector<farm::SweepCell>
smallSweep()
{
    std::vector<farm::SweepCell> cells;
    for (const char *model : {"plb", "pg", "conv"}) {
        for (u64 seed = 1; seed <= 2; ++seed) {
            farm::SweepCell cell;
            cell.model = model;
            cell.workload = "zipf";
            cell.seed = seed;
            cell.config = core::SystemConfig::forModel(
                std::string(model) == "plb"
                    ? core::ModelKind::Plb
                    : std::string(model) == "pg"
                          ? core::ModelKind::PageGroup
                          : core::ModelKind::Conventional);
            cell.pages = 32;
            cell.references = 2'000;
            cell.makeStream = [](vm::VAddr base, u64 pages, u64 seed) {
                return std::make_unique<wl::ZipfPageStream>(base, pages,
                                                            0.8, seed);
            };
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

} // namespace

// ---------------------------------------------------------------------
// Ring buffer semantics.

TEST(ObsRingTest, CollectsEmittedEventsInOrder)
{
    TracingGuard guard;
    obs::startTracing({.bufferEvents = 64});
    obs::setThreadId(3);
    for (u64 i = 0; i < 10; ++i)
        obs::emit(obs::EventKind::AccessBegin, /*cycle=*/100 + i, i, i * 2);
    const std::vector<obs::Event> events = obs::stopTracing();
    ASSERT_EQ(events.size(), 10u);
    for (u64 i = 0; i < 10; ++i) {
        EXPECT_EQ(events[i].cycle, 100 + i);
        EXPECT_EQ(events[i].addr, i);
        EXPECT_EQ(events[i].arg, i * 2);
        EXPECT_EQ(events[i].tid, 3u);
        EXPECT_EQ(events[i].seq, i);
        EXPECT_EQ(events[i].kind, obs::EventKind::AccessBegin);
    }
    EXPECT_EQ(obs::droppedEvents(), 0u);
}

TEST(ObsRingTest, WrapKeepsNewestAndCountsDrops)
{
    TracingGuard guard;
    obs::startTracing({.bufferEvents = 8});
    obs::setThreadId(1);
    for (u64 i = 0; i < 20; ++i)
        obs::emit(obs::EventKind::PlbHit, /*cycle=*/i);
    EXPECT_EQ(obs::droppedEvents(), 12u);
    const std::vector<obs::Event> events = obs::stopTracing();
    // The ring keeps the 8 newest events, oldest-to-newest.
    ASSERT_EQ(events.size(), 8u);
    for (u64 i = 0; i < 8; ++i)
        EXPECT_EQ(events[i].cycle, 12 + i);
}

TEST(ObsRingTest, RestartResetsRingsAndDropCounter)
{
    TracingGuard guard;
    obs::startTracing({.bufferEvents = 4});
    for (u64 i = 0; i < 9; ++i)
        obs::emit(obs::EventKind::TlbHit, i);
    EXPECT_GT(obs::droppedEvents(), 0u);
    obs::stopTracing();

    obs::startTracing({.bufferEvents = 16});
    obs::emit(obs::EventKind::TlbMiss, 1);
    EXPECT_EQ(obs::droppedEvents(), 0u);
    const std::vector<obs::Event> events = obs::stopTracing();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, obs::EventKind::TlbMiss);
}

TEST(ObsRingTest, DisabledEmitMacroIsInert)
{
    // No startTracing: the macro must not register rings or record.
    SASOS_OBS_EVENT(obs::EventKind::AccessBegin, 1, 2, 3);
    EXPECT_FALSE(obs::enabled());
    const std::vector<obs::Event> events = obs::stopTracing();
    EXPECT_TRUE(events.empty());
}

// ---------------------------------------------------------------------
// Deterministic merge across worker counts.

TEST(ObsMergeTest, SweepTraceIsIdenticalAcrossThreadCounts)
{
    TracingGuard guard;
    const std::vector<farm::SweepCell> cells = smallSweep();

    auto traceSweep = [&](unsigned threads) {
        obs::startTracing({.bufferEvents = u64{1} << 18});
        farm::SweepRunner runner(threads);
        runner.run(cells);
        return obs::stopTracing();
    };

    const std::vector<obs::Event> serial = traceSweep(1);
    const std::vector<obs::Event> parallel = traceSweep(4);

    ASSERT_FALSE(serial.empty());
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].cycle, parallel[i].cycle) << "at " << i;
        EXPECT_EQ(serial[i].tid, parallel[i].tid) << "at " << i;
        EXPECT_EQ(serial[i].seq, parallel[i].seq) << "at " << i;
        EXPECT_EQ(serial[i].kind, parallel[i].kind) << "at " << i;
        EXPECT_EQ(serial[i].addr, parallel[i].addr) << "at " << i;
        EXPECT_EQ(serial[i].arg, parallel[i].arg) << "at " << i;
    }

    // Each cell carries its own logical tid (cell index + 1).
    std::set<u32> tids;
    for (const obs::Event &event : serial)
        tids.insert(event.tid);
    EXPECT_EQ(tids.size(), cells.size());
}

TEST(ObsMergeTest, ExitedWorkersFreeTheirRingsAndKeepTheirEvents)
{
    TracingGuard guard;
    // Each index emits as its own logical thread, the way sweep cells
    // do; parallelFor starts fresh OS threads on every call.
    auto traceRound = [](unsigned threads) {
        // Room for all 400 events in one ring, as threads=1 needs.
        obs::startTracing({.bufferEvents = 512});
        parallelFor(threads, 4, [](u64 i) {
            obs::setThreadId(static_cast<u32>(i) + 1);
            for (u64 k = 0; k < 100; ++k)
                obs::emit(obs::EventKind::TlbHit, /*cycle=*/k * 4 + i, i, k);
        });
        EXPECT_EQ(obs::droppedEvents(), 0u);
        return obs::stopTracing();
    };

    const std::vector<obs::Event> serial = traceRound(1);
    ASSERT_EQ(serial.size(), 400u);
    const std::size_t rings = obs::detail::liveRings();
    for (int round = 0; round < 5; ++round) {
        const std::vector<obs::Event> parallel = traceRound(4);
        ASSERT_EQ(parallel.size(), serial.size()) << "round " << round;
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(parallel[i].cycle, serial[i].cycle) << "at " << i;
            EXPECT_EQ(parallel[i].tid, serial[i].tid) << "at " << i;
            EXPECT_EQ(parallel[i].seq, serial[i].seq) << "at " << i;
            EXPECT_EQ(parallel[i].arg, serial[i].arg) << "at " << i;
        }
        // The round's workers have exited; their rings are gone.
        EXPECT_EQ(obs::detail::liveRings(), rings) << "round " << round;
    }
}

TEST(ObsMergeTest, MergeOrdersByCycleThenTidAndRenumbersSeq)
{
    TracingGuard guard;
    obs::startTracing({.bufferEvents = 64});
    // Interleave two logical threads from one OS thread, emitting
    // cycles out of order across tids.
    obs::setThreadId(2);
    obs::emit(obs::EventKind::PlbMiss, /*cycle=*/50);
    obs::setThreadId(1);
    obs::emit(obs::EventKind::PlbHit, /*cycle=*/10);
    obs::emit(obs::EventKind::PlbHit, /*cycle=*/50);
    obs::setThreadId(2);
    obs::emit(obs::EventKind::PlbMiss, /*cycle=*/10);
    const std::vector<obs::Event> events = obs::stopTracing();
    ASSERT_EQ(events.size(), 4u);
    // (10,tid1) (10,tid2) (50,tid1) (50,tid2)
    EXPECT_EQ(events[0].cycle, 10u);
    EXPECT_EQ(events[0].tid, 1u);
    EXPECT_EQ(events[1].cycle, 10u);
    EXPECT_EQ(events[1].tid, 2u);
    EXPECT_EQ(events[2].cycle, 50u);
    EXPECT_EQ(events[2].tid, 1u);
    EXPECT_EQ(events[3].cycle, 50u);
    EXPECT_EQ(events[3].tid, 2u);
    // seq renumbered per tid.
    EXPECT_EQ(events[0].seq, 0u);
    EXPECT_EQ(events[2].seq, 1u);
    EXPECT_EQ(events[1].seq, 0u);
    EXPECT_EQ(events[3].seq, 1u);
}

// ---------------------------------------------------------------------
// Perfetto JSON schema.

TEST(ObsPerfettoTest, EmittedJsonSatisfiesTraceEventSchema)
{
    TracingGuard guard;
    std::unique_ptr<core::System> sys;
    core::System &system = setupSystem(sys, core::ModelKind::Plb);

    obs::startTracing({.bufferEvents = u64{1} << 18});
    wl::ZipfPageStream stream(vm::VAddr(0x100000), 64, 0.8, 7);
    Rng rng(7);
    system.run(stream, 5'000, rng);
    const u64 dropped = obs::droppedEvents();
    const std::vector<obs::Event> events = obs::stopTracing();

    std::ostringstream os;
    obs::writePerfettoJson(os, events, dropped);
    const JsonValue root = parseJson(os.str());

    ASSERT_EQ(root.kind, JsonValue::Object);
    EXPECT_EQ(root.at("displayTimeUnit").text, "ns");
    EXPECT_EQ(root.at("otherData").at("droppedEvents").number, 0.0);

    const JsonValue &trace = root.at("traceEvents");
    ASSERT_EQ(trace.kind, JsonValue::Array);
    ASSERT_EQ(trace.items.size(), events.size());

    // Every event carries the required keys; B/E spans nest per tid.
    std::map<double, std::vector<std::string>> open;
    for (const JsonValue &event : trace.items) {
        ASSERT_EQ(event.kind, JsonValue::Object);
        EXPECT_EQ(event.at("name").kind, JsonValue::String);
        EXPECT_FALSE(event.at("name").text.empty());
        EXPECT_EQ(event.at("ts").kind, JsonValue::Number);
        EXPECT_EQ(event.at("pid").kind, JsonValue::Number);
        EXPECT_EQ(event.at("tid").kind, JsonValue::Number);
        const std::string &ph = event.at("ph").text;
        ASSERT_TRUE(ph == "B" || ph == "E" || ph == "i") << ph;
        const double tid = event.at("tid").number;
        if (ph == "B") {
            open[tid].push_back(event.at("name").text);
        } else if (ph == "E") {
            ASSERT_FALSE(open[tid].empty()) << "E without B";
            open[tid].pop_back();
        } else {
            EXPECT_EQ(event.at("s").text, "t");
        }
    }
    for (const auto &[tid, stack] : open)
        EXPECT_TRUE(stack.empty()) << "unclosed B on tid " << tid;
}

TEST(ObsPerfettoTest, ScopedTraceWritesFileWhenEnabled)
{
    TracingGuard guard;
    const std::string path = test::uniqueTempPath("obs_scoped.json");
    Options options;
    options.set("trace", "1");
    options.set("trace_out", path);
    options.set("trace_buf", "1024");
    {
        obs::ScopedTrace trace(options);
        ASSERT_TRUE(trace.active());
        EXPECT_TRUE(obs::enabled());
        obs::emit(obs::EventKind::DomainSwitch, 5, 0, 2);
    }
    EXPECT_FALSE(obs::enabled());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue root = parseJson(text.str());
    EXPECT_GE(root.at("traceEvents").items.size(), 1u);
    std::remove(path.c_str());
}

TEST(ObsPerfettoTest, InactiveScopedTraceIsInert)
{
    Options options;
    obs::ScopedTrace trace(options);
    EXPECT_FALSE(trace.active());
    EXPECT_FALSE(obs::enabled());
}

// ---------------------------------------------------------------------
// Events reconcile with the stats tree.

class ObsReconcileTest : public testing::TestWithParam<core::ModelKind>
{
};

TEST_P(ObsReconcileTest, EventCountsMatchStatsCounters)
{
    TracingGuard guard;
    std::unique_ptr<core::System> sys;
    core::System &system = setupSystem(sys, GetParam());

    obs::startTracing({.bufferEvents = u64{1} << 18});
    wl::ZipfPageStream stream(vm::VAddr(0x100000), 64, 0.8, 7);
    Rng rng(7);
    system.run(stream, 5'000, rng, vm::AccessType::Store);
    const std::vector<obs::Event> events = obs::stopTracing();

    auto &kernel = system.kernel();
    EXPECT_EQ(countKind(events, obs::EventKind::AccessBegin),
              system.references.value());
    EXPECT_EQ(countKind(events, obs::EventKind::AccessEnd),
              system.references.value());
    EXPECT_EQ(countKind(events, obs::EventKind::ProtectionFault),
              kernel.protectionFaults.value());
    EXPECT_EQ(countKind(events, obs::EventKind::TranslationFault),
              kernel.translationFaults.value());
    EXPECT_EQ(countKind(events, obs::EventKind::FaultRetry),
              kernel.faultRetries.value());
    EXPECT_EQ(countKind(events, obs::EventKind::DomainSwitch),
              kernel.domainSwitches.value());

    // Hit events come from probes and same-page memo replays alike,
    // so they must match the structures' hit counters exactly.
    auto expectTlbEvents = [&](const hw::Tlb &tlb) {
        EXPECT_EQ(countKind(events, obs::EventKind::TlbHit),
                  tlb.hits.value());
        EXPECT_EQ(countKind(events, obs::EventKind::TlbMiss),
                  tlb.misses.value());
    };
    if (GetParam() == core::ModelKind::Plb) {
        auto *plb = system.plbSystem();
        ASSERT_NE(plb, nullptr);
        EXPECT_EQ(countKind(events, obs::EventKind::PlbHit),
                  plb->plb().hits.value());
        EXPECT_EQ(countKind(events, obs::EventKind::PlbFill),
                  plb->pageFills.value() + plb->superPageFills.value());
        EXPECT_EQ(countKind(events, obs::EventKind::PlbMiss),
                  plb->pageFills.value() + plb->superPageFills.value());
        expectTlbEvents(plb->translationTlb());
    }
    if (GetParam() == core::ModelKind::PageGroup) {
        auto *pg = system.pageGroupSystem();
        ASSERT_NE(pg, nullptr);
        EXPECT_EQ(countKind(events, obs::EventKind::PgCacheHit),
                  pg->pageGroupCache().hits.value() +
                      pg->pageGroupCache().globalHits.value());
        EXPECT_EQ(countKind(events, obs::EventKind::PgCacheFill),
                  pg->pgCacheRefills.value());
        expectTlbEvents(pg->tlb());
    }
    if (GetParam() == core::ModelKind::Conventional) {
        auto *conv = system.conventionalSystem();
        ASSERT_NE(conv, nullptr);
        expectTlbEvents(conv->tlb());
    }
    if (GetParam() == core::ModelKind::Pkey) {
        auto *pkey = system.pkeySystem();
        ASSERT_NE(pkey, nullptr);
        const hw::KeyCache &keys = pkey->keyCache();
        EXPECT_EQ(countKind(events, obs::EventKind::KeyHit),
                  keys.hits.value());
        EXPECT_EQ(countKind(events, obs::EventKind::KeyMiss),
                  keys.misses.value());
        EXPECT_EQ(countKind(events, obs::EventKind::KeyHit) +
                      countKind(events, obs::EventKind::KeyMiss),
                  keys.lookups.value());
        EXPECT_EQ(countKind(events, obs::EventKind::KeyFill),
                  keys.insertions.value());
        EXPECT_GT(keys.hits.value(), 0u);
        // Key registers are not the page-group cache.
        EXPECT_EQ(countKind(events, obs::EventKind::PgCacheHit) +
                      countKind(events, obs::EventKind::PgCacheMiss) +
                      countKind(events, obs::EventKind::PgCacheFill),
                  0u);
        expectTlbEvents(pkey->tlb());
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ObsReconcileTest,
                         testing::Values(core::ModelKind::Plb,
                                         core::ModelKind::PageGroup,
                                         core::ModelKind::Conventional,
                                         core::ModelKind::Pkey));

TEST(ObsReconcileTest, TracedRunIsBitIdenticalToUntraced)
{
    TracingGuard guard;
    // Tracing only observes the one reference path; simulated cycles
    // and stats must not change on any model.
    auto runOnce = [](core::ModelKind kind, bool traced) {
        std::unique_ptr<core::System> sys;
        core::System &system = setupSystem(sys, kind);
        if (traced)
            obs::startTracing({.bufferEvents = u64{1} << 18});
        wl::ZipfPageStream stream(vm::VAddr(0x100000), 64, 0.8, 7);
        Rng rng(7);
        system.run(stream, 5'000, rng);
        if (traced)
            obs::stopTracing();
        std::ostringstream dump;
        system.dumpStats(dump);
        return dump.str();
    };
    for (const core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup,
          core::ModelKind::Conventional, core::ModelKind::Pkey}) {
        EXPECT_EQ(runOnce(kind, false), runOnce(kind, true))
            << core::toString(kind);
    }
}

// ---------------------------------------------------------------------
// JsonWriter.

TEST(JsonWriterTest, EscapesStrings)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(obs::jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, NestedStructureParses)
{
    std::ostringstream os;
    obs::JsonWriter json(os);
    json.beginObject();
    json.member("name", "va\"lue");
    json.member("count", u64{42});
    json.member("ratio", 0.5);
    json.member("flag", true);
    json.key("list");
    json.beginArray();
    json.value(u64{1});
    json.value("two");
    json.beginObject();
    json.member("deep", false);
    json.endObject();
    json.endArray();
    json.endObject();

    const JsonValue root = parseJson(os.str());
    EXPECT_EQ(root.at("name").text, "va\"lue");
    EXPECT_EQ(root.at("count").number, 42.0);
    EXPECT_EQ(root.at("ratio").number, 0.5);
    EXPECT_TRUE(root.at("flag").boolean);
    ASSERT_EQ(root.at("list").items.size(), 3u);
    EXPECT_EQ(root.at("list").items[1].text, "two");
    EXPECT_FALSE(root.at("list").items[2].at("deep").boolean);
}

TEST(JsonWriterTest, DoublesRoundTrip)
{
    for (double v : {0.0, 1.0, 0.1, 1e-9, 123456.789, 1e300}) {
        std::ostringstream os;
        obs::JsonWriter json(os);
        json.beginArray();
        json.value(v);
        json.endArray();
        const JsonValue root = parseJson(os.str());
        EXPECT_EQ(root.items[0].number, v) << os.str();
    }
}

// ---------------------------------------------------------------------
// Stats exporters.

TEST(StatsExportTest, JsonTreeMirrorsStatsDump)
{
    std::unique_ptr<core::System> sys;
    core::System &system = setupSystem(sys, core::ModelKind::Plb);
    wl::ZipfPageStream stream(vm::VAddr(0x100000), 64, 0.8, 7);
    Rng rng(7);
    system.run(stream, 2'000, rng);

    std::ostringstream os;
    system.dumpStatsJson(os);
    const JsonValue root = parseJson(os.str());

    const JsonValue &tree = root.at("stats").at("system");
    EXPECT_EQ(tree.at("references").number, 2000.0);
    EXPECT_TRUE(tree.has("kernel"));
    EXPECT_TRUE(tree.has("plbSystem"));
    EXPECT_EQ(tree.at("kernel").at("domainSwitches").number,
              static_cast<double>(
                  system.kernel().domainSwitches.value()));
    // The cycle breakdown reconciles with the account.
    EXPECT_EQ(root.at("cycles").at("total").number,
              static_cast<double>(system.cycles().count()));
}

TEST(StatsExportTest, CsvHasHeaderAndDottedPaths)
{
    std::unique_ptr<core::System> sys;
    core::System &system = setupSystem(sys, core::ModelKind::Conventional);
    wl::ZipfPageStream stream(vm::VAddr(0x100000), 64, 0.8, 7);
    Rng rng(7);
    system.run(stream, 1'000, rng);

    std::ostringstream os;
    system.dumpStatsCsv(os);
    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "stat,value");
    bool saw_refs = false, saw_cycles = false;
    while (std::getline(in, line)) {
        ASSERT_NE(line.find(','), std::string::npos) << line;
        if (line.rfind("system.references,", 0) == 0) {
            saw_refs = true;
            EXPECT_EQ(line, "system.references,1000");
        }
        if (line.rfind("cycles.total,", 0) == 0)
            saw_cycles = true;
    }
    EXPECT_TRUE(saw_refs);
    EXPECT_TRUE(saw_cycles);
}

// ---------------------------------------------------------------------
// Fatal handler hook (used by the fuzz harness).

TEST(FatalHandlerTest, HandlerInterceptsFatal)
{
    FatalHandler previous =
        setFatalHandler([](const std::string &) {
            throw std::runtime_error("intercepted");
        });
    EXPECT_THROW(SASOS_FATAL("boom"), std::runtime_error);
    setFatalHandler(previous);
}
