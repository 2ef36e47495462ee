/**
 * @file
 * Unit tests for ultra::obs: the stats registry and its JSON dump, the
 * time-series sampler, and the Chrome trace-event recorder -- including
 * an end-to-end schema check of a small hot-spot machine run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "core/machine.h"
#include "common/json_lite.h"
#include "obs/event_trace.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "pe/task.h"

namespace ultra
{
namespace
{

// ------------------------------------------------------------------
// JSON primitives
// ------------------------------------------------------------------

std::string
escaped(const std::string &s)
{
    std::ostringstream os;
    obs::writeJsonString(os, s);
    return os.str();
}

TEST(JsonWriterTest, EscapesSpecialCharacters)
{
    EXPECT_EQ(escaped("plain"), "\"plain\"");
    EXPECT_EQ(escaped("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(escaped("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(escaped("a\nb\tc"), "\"a\\nb\\tc\"");
    // Control characters become \u escapes; the result must parse.
    const std::string ctrl = escaped(std::string("x\x01y", 3));
    const auto v = jsonlite::parse(ctrl);
    EXPECT_TRUE(v.isString());
}

TEST(JsonWriterTest, NumbersRoundTrip)
{
    std::ostringstream os;
    obs::writeJsonNumber(os, 42.0);
    os << ' ';
    obs::writeJsonNumber(os, -3.5);
    EXPECT_EQ(os.str(), "42 -3.5");

    std::ostringstream inf;
    obs::writeJsonNumber(inf, 1.0 / 0.0);
    EXPECT_EQ(inf.str(), "null"); // non-finite is not valid JSON
}

// ------------------------------------------------------------------
// Registry
// ------------------------------------------------------------------

TEST(RegistryTest, ScalarReadsThrough)
{
    obs::Registry reg;
    double counter = 0.0;
    reg.addScalar("a.count", [&] { return counter; });
    EXPECT_TRUE(reg.has("a.count"));
    EXPECT_FALSE(reg.has("a.missing"));
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.value("a.count"), 0.0);
    counter = 7.0; // no re-registration needed: getters are live
    EXPECT_EQ(reg.value("a.count"), 7.0);
}

TEST(RegistryTest, PathsInRegistrationOrder)
{
    obs::Registry reg;
    reg.addScalar("z.last", [] { return 0.0; });
    reg.addScalar("a.first", [] { return 0.0; });
    const auto paths = reg.paths();
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_EQ(paths[0], "z.last");
    EXPECT_EQ(paths[1], "a.first");
}

TEST(RegistryDeathTest, DuplicatePathPanics)
{
    obs::Registry reg;
    reg.addScalar("dup", [] { return 0.0; });
    EXPECT_DEATH(reg.addScalar("dup", [] { return 1.0; }), "dup");
}

TEST(RegistryDeathTest, EmptyPathPanics)
{
    obs::Registry reg;
    EXPECT_DEATH(reg.addScalar("", [] { return 0.0; }), "");
}

TEST(RegistryTest, AccumulatorAndHistogramAccess)
{
    obs::Registry reg;
    Accumulator acc;
    acc.add(2.0);
    acc.add(4.0);
    Histogram hist(1, 16);
    hist.add(3);
    reg.addAccumulator("lat", &acc);
    reg.addHistogram("lat_hist", &hist);
    EXPECT_DOUBLE_EQ(reg.value("lat"), 3.0); // mean
    EXPECT_DOUBLE_EQ(reg.accumulator("lat").max(), 4.0);
    EXPECT_EQ(reg.histogram("lat_hist").count(), 1u);
}

TEST(RegistryTest, JsonDumpRoundTrips)
{
    obs::Registry reg;
    reg.addScalar("net.injected", [] { return 42.0; });
    Accumulator acc;
    acc.add(1.0);
    acc.add(5.0);
    reg.addAccumulator("net.round_trip", &acc);
    Histogram hist(2, 8);
    for (std::uint64_t x : {2, 2, 4, 9})
        hist.add(x);
    reg.addHistogram("net.round_trip_hist", &hist);

    const auto dump = jsonlite::parse(reg.jsonDump(1234));
    EXPECT_EQ(dump["cycle"].number, 1234.0);
    const auto &stats = dump["stats"];
    EXPECT_EQ(stats["net.injected"].number, 42.0);
    const auto &rt = stats["net.round_trip"];
    EXPECT_EQ(rt["count"].number, 2.0);
    EXPECT_EQ(rt["mean"].number, 3.0);
    EXPECT_EQ(rt["min"].number, 1.0);
    EXPECT_EQ(rt["max"].number, 5.0);
    const auto &hd = stats["net.round_trip_hist"];
    EXPECT_EQ(hd["count"].number, 4.0);
    EXPECT_EQ(hd["bin_width"].number, 2.0);
    EXPECT_TRUE(hd["bins"].isArray());
    EXPECT_GE(hd["p99"].number, hd["p50"].number);
}

// ------------------------------------------------------------------
// Sampler
// ------------------------------------------------------------------

TEST(SamplerTest, RowsAndCsv)
{
    obs::Sampler sampler;
    double x = 0.0;
    sampler.addColumn("x", [&] { return x; });
    sampler.addColumn("twice_x", [&] { return 2.0 * x; });
    for (Cycle c = 0; c < 300; c += 100) {
        x = static_cast<double>(c);
        sampler.sample(c);
    }
    EXPECT_EQ(sampler.numColumns(), 2u);
    ASSERT_EQ(sampler.numRows(), 3u);
    EXPECT_EQ(sampler.at(2, 1), 400.0);

    const std::string csv = sampler.csv();
    EXPECT_EQ(csv.substr(0, csv.find('\n')), "cycle,x,twice_x");
    EXPECT_NE(csv.find("200,200,400"), std::string::npos);
}

TEST(SamplerTest, CycleColumnMonotone)
{
    obs::Sampler sampler;
    sampler.addColumn("zero", [] { return 0.0; });
    for (Cycle c = 0; c <= 500; c += 50)
        sampler.sample(c);
    for (std::size_t row = 1; row < sampler.numRows(); ++row)
        EXPECT_LT(sampler.cycleAt(row - 1), sampler.cycleAt(row));
}

TEST(SamplerTest, RegistryColumnReadsThrough)
{
    obs::Registry reg;
    double gauge = 3.0;
    reg.addScalar("q.fill", [&] { return gauge; });
    obs::Sampler sampler;
    sampler.addRegistryColumn(reg, "q.fill");
    sampler.sample(0);
    gauge = 9.0;
    sampler.sample(1);
    EXPECT_EQ(sampler.columnNames().front(), "q.fill");
    EXPECT_EQ(sampler.at(0, 0), 3.0);
    EXPECT_EQ(sampler.at(1, 0), 9.0);
}

TEST(SamplerTest, ClearKeepsColumns)
{
    obs::Sampler sampler;
    sampler.addColumn("x", [] { return 1.0; });
    sampler.sample(10);
    sampler.clear();
    EXPECT_EQ(sampler.numRows(), 0u);
    EXPECT_EQ(sampler.numColumns(), 1u);
    sampler.sample(20);
    EXPECT_EQ(sampler.cycleAt(0), 20u);
}

// ------------------------------------------------------------------
// EventTrace
// ------------------------------------------------------------------

TEST(EventTraceTest, TrackInterningIsIdempotent)
{
    obs::EventTrace trace;
    const auto a = trace.track("pe");
    const auto b = trace.track("mm");
    EXPECT_NE(a, b);
    EXPECT_EQ(trace.track("pe"), a);
    EXPECT_EQ(trace.numTracks(), 2u);
}

TEST(EventTraceTest, BoundedBufferCountsDrops)
{
    obs::EventTrace trace(2);
    const auto t = trace.track("pe");
    trace.instant(t, 0, "a", 1);
    trace.instant(t, 0, "b", 2);
    trace.instant(t, 0, "c", 3);
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.dropped(), 1u);
}

TEST(EventTraceTest, JsonSchemaForAllShapes)
{
    obs::EventTrace trace;
    const auto pe = trace.track("pe");
    const auto q = trace.track("net.copy0.stage0.tomm");
    trace.instant(pe, 3, "inject", 10);
    trace.complete(q, 1, "hop", 11, 2);
    trace.complete(q, 1, "zero_dur", 11, 0); // must clamp to dur >= 1
    trace.counter(q, "occupancy", 12, 7.5);

    const auto doc = jsonlite::parse(trace.json());
    const auto &events = doc["traceEvents"];
    ASSERT_TRUE(events.isArray());

    std::set<std::string> phases;
    std::size_t metadata = 0;
    for (const auto &e : events.array) {
        const std::string ph = e["ph"].string;
        phases.insert(ph);
        if (ph == "M") {
            ++metadata;
            EXPECT_EQ(e["name"].string, "process_name");
            EXPECT_TRUE(e["args"]["name"].isString());
            continue;
        }
        EXPECT_TRUE(e["pid"].isNumber());
        EXPECT_TRUE(e["tid"].isNumber());
        EXPECT_TRUE(e["ts"].isNumber());
        if (ph == "X") {
            EXPECT_GE(e["dur"].number, 1.0);
        }
        if (ph == "i") {
            EXPECT_EQ(e["s"].string, "t");
        }
        if (ph == "C") {
            EXPECT_EQ(e["args"]["value"].number, 7.5);
        }
    }
    EXPECT_EQ(metadata, 2u); // one process_name per track
    EXPECT_EQ(phases, (std::set<std::string>{"M", "X", "i", "C"}));
}

TEST(EventTraceTest, IdAndLinkArgsSurfaceInJson)
{
    // Message-id correlation for tools/ultrascope: nonzero id / link
    // become args.id / args.link; zero (the default) stays silent so
    // uncorrelated events carry no args clutter.
    obs::EventTrace trace;
    const auto q = trace.track("net");
    trace.instant(q, 0, "combine", 5, 42, 17); // absorbed 42 -> 17
    trace.complete(q, 1, "hop", 6, 2, 42);
    trace.instant(q, 0, "plain", 7);

    const auto doc = jsonlite::parse(trace.json());
    bool saw_combine = false;
    bool saw_hop = false;
    bool saw_plain = false;
    for (const auto &e : doc["traceEvents"].array) {
        if (e["ph"].string == "M")
            continue;
        const std::string name = e["name"].string;
        if (name == "combine") {
            saw_combine = true;
            EXPECT_EQ(e["args"]["id"].number, 42.0);
            EXPECT_EQ(e["args"]["link"].number, 17.0);
        } else if (name == "hop") {
            saw_hop = true;
            EXPECT_EQ(e["args"]["id"].number, 42.0);
            EXPECT_FALSE(e["args"].has("link"));
        } else if (name == "plain") {
            saw_plain = true;
            EXPECT_FALSE(e.has("args"));
        }
    }
    EXPECT_TRUE(saw_combine);
    EXPECT_TRUE(saw_hop);
    EXPECT_TRUE(saw_plain);
}

// ------------------------------------------------------------------
// End to end: a hot-spot run through the Machine wiring
// ------------------------------------------------------------------

core::Machine
hotSpotMachine()
{
    return core::Machine(core::MachineConfig::small(16, 2));
}

void
runHotSpot(core::Machine &machine)
{
    const Addr hot = machine.allocShared(1, "hot");
    machine.launchAll(16, [hot](pe::Pe &p) -> pe::Task {
        for (int i = 0; i < 8; ++i)
            co_await p.fetchAdd(hot, 1);
    });
    ASSERT_TRUE(machine.run(100'000));
}

TEST(MachineObsTest, StatsJsonContainsComponentStats)
{
    core::Machine machine = hotSpotMachine();
    runHotSpot(machine);
    const auto doc = jsonlite::parse(machine.statsJson());
    const auto &stats = doc["stats"];
    EXPECT_EQ(stats["net.injected"].number, 16.0 * 8.0);
    EXPECT_GT(stats["net.combined"].number, 0.0);
    EXPECT_TRUE(stats.has("net.stage0.combines"));
    EXPECT_EQ(stats["pe.shared_refs"].number, 16.0 * 8.0);
    EXPECT_EQ(stats["pni.completed"].number, 16.0 * 8.0);
    EXPECT_TRUE(stats["net.round_trip"].has("mean"));
    // 16 PEs fetch-adding one cell: all traffic on one module.
    EXPECT_EQ(stats["mem.fa_ops"].number, stats["mem.executed"].number);
}

TEST(MachineObsTest, StatsReportMatchesRegistry)
{
    core::Machine machine = hotSpotMachine();
    runHotSpot(machine);
    const std::string report = machine.statsReport();
    EXPECT_NE(report.find("16 PEs engaged"), std::string::npos);
    EXPECT_NE(report.find("combines by stage"), std::string::npos);
    // The report's injected count is the registry's.
    const auto doc = jsonlite::parse(machine.statsJson());
    const auto injected = static_cast<std::uint64_t>(
        doc["stats"]["net.injected"].number);
    EXPECT_NE(report.find(std::to_string(injected) + " injected"),
              std::string::npos);
}

TEST(MachineObsTest, SamplingProducesMonotoneRows)
{
    core::Machine machine = hotSpotMachine();
    machine.enableSampling(10);
    runHotSpot(machine);
    const obs::Sampler &sampler = machine.sampler();
    ASSERT_GT(sampler.numRows(), 1u);
    EXPECT_GT(sampler.numColumns(), 2u);
    for (std::size_t row = 1; row < sampler.numRows(); ++row)
        EXPECT_LT(sampler.cycleAt(row - 1), sampler.cycleAt(row));
    const std::string csv = sampler.csv();
    EXPECT_EQ(csv.rfind("cycle,", 0), 0u);
    EXPECT_NE(csv.find("net.stage0.tomm_pkts"), std::string::npos);
}

TEST(MachineObsTest, EventTraceRecordsHotSpotActivity)
{
    core::Machine machine = hotSpotMachine();
    obs::EventTrace trace;
    machine.attachEventTrace(&trace);
    runHotSpot(machine);
    machine.attachEventTrace(nullptr);

    EXPECT_EQ(trace.dropped(), 0u);
    const auto doc = jsonlite::parse(trace.json());
    const auto &events = doc["traceEvents"];
    ASSERT_TRUE(events.isArray());
    ASSERT_GT(events.array.size(), 0u);

    std::set<std::string> names;
    std::set<std::string> track_names;
    for (const auto &e : events.array) {
        if (e["ph"].string == "M") {
            track_names.insert(e["args"]["name"].string);
            continue;
        }
        names.insert(e["name"].string);
    }
    // The full pipeline shows up: inject, per-stage hops (op names),
    // combining, fission, service, reply and PE waiting.
    EXPECT_TRUE(names.count("inject"));
    EXPECT_TRUE(names.count("combine"));
    EXPECT_TRUE(names.count("decombine"));
    EXPECT_TRUE(names.count("FetchAdd"));
    EXPECT_TRUE(names.count("reply"));
    EXPECT_TRUE(names.count("wait"));
    EXPECT_TRUE(track_names.count("pe"));
    EXPECT_TRUE(track_names.count("mm"));
    EXPECT_TRUE(track_names.count("net.copy0.stage0.tomm"));
}

} // namespace
} // namespace ultra
