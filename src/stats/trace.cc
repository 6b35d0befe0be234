#include "stats/trace.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "common/json.hh"

namespace hoopnvm
{

namespace
{

struct Sink
{
    std::mutex mu;
    std::string path;
    bool pathSet = false; // setPath() overrides the environment
    std::vector<std::string> events;
    std::atomic<int> nextPid{1};
    bool atexitArmed = false;
};

Sink &
sink()
{
    static Sink s;
    return s;
}

std::string
envPath()
{
    // lint: nondet-api-ok (HOOP_TRACE selects the trace output path; it never feeds simulated state)
    const char *p = std::getenv("HOOP_TRACE");
    return p ? std::string(p) : std::string();
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out += jsonQuote(s);
}

void
appendMicros(std::string &out, Tick t)
{
    // ticks are picoseconds; trace "ts" is microseconds. Render with
    // six decimals so every distinct tick is a distinct timestamp.
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(t / 1000000),
                  static_cast<unsigned long long>(t % 1000000));
    out += buf;
}

void
atexitWrite()
{
    Trace::write();
}

} // namespace

TraceBuffer::TraceBuffer(std::string processName)
    : processName_(std::move(processName)),
      pid_(sink().nextPid.fetch_add(1, std::memory_order_relaxed))
{
    // Name the process in the trace UI.
    std::string e = "{\"ph\":\"M\",\"pid\":";
    e += std::to_string(pid_);
    e += ",\"name\":\"process_name\",\"args\":{\"name\":";
    appendJsonString(e, processName_);
    e += "}}";
    events_.push_back(std::move(e));
}

TraceBuffer::~TraceBuffer()
{
    flush();
}

void
TraceBuffer::span(const char *name, const char *cat, unsigned tid,
                  Tick start, Tick end)
{
    if (end < start)
        end = start;
    std::string e = "{\"ph\":\"X\",\"name\":\"";
    e += name;
    e += "\",\"cat\":\"";
    e += cat;
    e += "\",\"pid\":";
    e += std::to_string(pid_);
    e += ",\"tid\":";
    e += std::to_string(tid);
    e += ",\"ts\":";
    appendMicros(e, start);
    e += ",\"dur\":";
    appendMicros(e, end - start);
    e += '}';
    events_.push_back(std::move(e));
}

void
TraceBuffer::counter(const char *name, Tick at, std::uint64_t value)
{
    std::string e = "{\"ph\":\"C\",\"name\":\"";
    e += name;
    e += "\",\"pid\":";
    e += std::to_string(pid_);
    e += ",\"ts\":";
    appendMicros(e, at);
    e += ",\"args\":{\"value\":";
    e += std::to_string(value);
    e += "}}";
    events_.push_back(std::move(e));
}

void
TraceBuffer::flush()
{
    if (events_.empty())
        return;
    Sink &s = sink();
    std::lock_guard<std::mutex> lk(s.mu);
    for (auto &e : events_)
        s.events.push_back(std::move(e));
    events_.clear();
}

namespace Trace
{

bool
enabled()
{
    return !path().empty();
}

void
setPath(const std::string &p)
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lk(s.mu);
    s.path = p;
    s.pathSet = true;
    if (!p.empty() && !s.atexitArmed) {
        s.atexitArmed = true;
        std::atexit(atexitWrite);
    }
}

std::string
path()
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.pathSet)
        return s.path;
    const std::string p = envPath();
    if (!p.empty() && !s.atexitArmed) {
        s.atexitArmed = true;
        std::atexit(atexitWrite);
    }
    return p;
}

bool
write()
{
    const std::string p = path();
    if (p.empty())
        return true;
    Sink &s = sink();
    std::lock_guard<std::mutex> lk(s.mu);
    std::FILE *f = std::fopen(p.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < s.events.size(); ++i) {
        if (i)
            std::fputc(',', f);
        std::fputc('\n', f);
        std::fputs(s.events[i].c_str(), f);
    }
    std::fputs("\n]}\n", f);
    const bool ok = std::fclose(f) == 0;
    return ok;
}

void
clearForTest()
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lk(s.mu);
    s.events.clear();
}

} // namespace Trace

} // namespace hoopnvm
