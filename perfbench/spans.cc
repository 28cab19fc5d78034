#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>

#include "perfbench.hh"

namespace perfbench
{

namespace
{

bool g_tracing = false;
u64 g_op = 0;
std::vector<SpanRecord> g_spans;
/** Indexes of the spans currently open, innermost last. */
std::vector<int> g_open;
const Clock::time_point g_epoch = Clock::now();

double
microsSinceEpoch(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

} // namespace

u64
digest(const std::string &bytes, u64 seed)
{
    u64 h = seed;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
setTracing(bool on)
{
    g_tracing = on;
}

bool
tracing()
{
    return g_tracing;
}

void
setCurrentOp(u64 op)
{
    g_op = op;
}

const std::vector<SpanRecord> &
spans()
{
    return g_spans;
}

Span::Span(const char *name)
{
    if (!g_tracing)
        return;
    SpanRecord record;
    record.name = name;
    record.parent = g_open.empty() ? -1 : g_open.back();
    record.op = g_op;
    index_ = static_cast<int>(g_spans.size());
    g_open.push_back(index_);
    // Read the clock last so the bookkeeping above is not charged.
    record.start = Clock::now();
    g_spans.push_back(record);
}

Span::~Span()
{
    if (index_ < 0)
        return;
    g_spans[static_cast<std::size_t>(index_)].end = Clock::now();
    g_open.pop_back();
}

std::map<std::string, LayerTime>
layerTimes()
{
    std::vector<double> child_ns(g_spans.size(), 0.0);
    for (const SpanRecord &span : g_spans) {
        if (span.parent >= 0)
            child_ns[static_cast<std::size_t>(span.parent)] +=
                nanosBetween(span.start, span.end);
    }
    std::map<std::string, LayerTime> table;
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const double total = nanosBetween(g_spans[i].start, g_spans[i].end);
        LayerTime &row = table[g_spans[i].name];
        ++row.calls;
        row.totalNs += total;
        row.selfNs += total - child_ns[i];
    }
    return table;
}

void
writeChromeTrace(const std::string &path)
{
    std::ofstream os(path);
    os << std::fixed << std::setprecision(3);
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const SpanRecord &span = g_spans[i];
        os << (i ? ",\n" : "") << "{\"name\":\"" << span.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << microsSinceEpoch(span.start)
           << ",\"dur\":" << nanosBetween(span.start, span.end) / 1000.0
           << ",\"args\":{\"span\":" << i << ",\"parent\":" << span.parent
           << ",\"op\":" << span.op << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

void
writeSelfTimeTable(const std::string &path)
{
    const std::map<std::string, LayerTime> table = layerTimes();
    double all_self = 0.0;
    for (const auto &[name, row] : table)
        all_self += row.selfNs;
    std::vector<std::pair<std::string, LayerTime>> rows(table.begin(),
                                                        table.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.selfNs > b.second.selfNs;
    });
    std::ofstream os(path);
    os << std::left << std::setw(28) << "span" << std::right
       << std::setw(10) << "calls" << std::setw(14) << "total_ms"
       << std::setw(14) << "self_ms" << std::setw(9) << "self%"
       << "\n";
    os << std::fixed;
    for (const auto &[name, row] : rows) {
        os << std::left << std::setw(28) << name << std::right
           << std::setw(10) << row.calls << std::setw(14)
           << std::setprecision(3) << row.totalNs / 1e6 << std::setw(14)
           << row.selfNs / 1e6 << std::setw(8) << std::setprecision(1)
           << (all_self > 0.0 ? 100.0 * row.selfNs / all_self : 0.0)
           << "%\n";
    }
}

} // namespace perfbench
