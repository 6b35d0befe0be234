#include "analysis/ordering_tracker.hh"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "common/logging.hh"

namespace hoopnvm
{

namespace
{

std::string
describeWrite(Addr addr, std::uint32_t len, Tick completion)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "write [0x%llx,+%u) completing at %llu",
                  static_cast<unsigned long long>(addr), len,
                  static_cast<unsigned long long>(completion));
    return buf;
}

} // namespace

const char *
orderingRuleKindName(OrderingRuleKind k)
{
    switch (k) {
      case OrderingRuleKind::SettledAtTrigger:
        return "settled-at-trigger";
      case OrderingRuleKind::DurableByAck:
        return "durable-by-ack";
      case OrderingRuleKind::IssuedBeforeTrigger:
        return "issued-before-trigger";
    }
    return "?";
}

void
mergeRuleReports(std::vector<OrderingRuleReport> *into,
                 const std::vector<OrderingRuleReport> &from)
{
    for (const OrderingRuleReport &rr : from) {
        auto it = std::find_if(into->begin(), into->end(),
                               [&rr](const OrderingRuleReport &have) {
                                   return have.name == rr.name;
                               });
        if (it == into->end()) {
            into->push_back(rr);
        } else {
            it->fires += rr.fires;
            it->depsChecked += rr.depsChecked;
            it->violations += rr.violations;
        }
    }
}

void
OrderingTracker::RuleDecl::requiresDurable(std::string what)
{
    t_.rules_[idx_].kind = OrderingRuleKind::DurableByAck;
    t_.rules_[idx_].protects = std::move(what);
}

void
OrderingTracker::RuleDecl::requiresSettled(std::string what)
{
    t_.rules_[idx_].kind = OrderingRuleKind::SettledAtTrigger;
    t_.rules_[idx_].protects = std::move(what);
}

void
OrderingTracker::RuleDecl::requiresIssued(std::string what)
{
    t_.rules_[idx_].kind = OrderingRuleKind::IssuedBeforeTrigger;
    t_.rules_[idx_].protects = std::move(what);
}

OrderingTracker::RuleDecl
OrderingTracker::rule(const std::string &name)
{
    const std::size_t idx = findRule(name.c_str());
    if (idx == rules_.size()) {
        Rule r;
        r.name = name;
        rules_.push_back(std::move(r));
    }
    return RuleDecl(*this, idx);
}

std::size_t
OrderingTracker::findRule(const char *rule) const
{
    std::size_t i = 0;
    while (i < rules_.size() && rules_[i].name != rule)
        ++i;
    return i;
}

std::size_t
OrderingTracker::indexOf(const char *rule) const
{
    const std::size_t i = findRule(rule);
    HOOP_ASSERT(i < rules_.size(),
                "ordering rule '%s' used before declaration", rule);
    return i;
}

void
OrderingTracker::addDep(const char *rule, std::uint64_t key)
{
    HOOP_ASSERT(haveLastWrite_,
                "addDep('%s') with no preceding timed write", rule);
    const std::size_t ri = indexOf(rule);
    groups_[{ri, key}].push_back(lastWrite_);
    openDepSeqs_[lastWrite_.seq] = ri;
}

void
OrderingTracker::trigger(const char *rule, std::uint64_t key, Tick ack,
                         std::size_t minDeps, bool consume)
{
    const std::size_t ri = indexOf(rule);
    Rule &r = rules_[ri];
    ++r.fires;

    auto git = groups_.find({ri, key});
    const std::vector<WriteRec> *deps =
        git == groups_.end() ? nullptr : &git->second;
    const std::size_t n = deps ? deps->size() : 0;

    if (n < minDeps) {
        recordViolation(
            ri, "group " + std::to_string(key) + " has " +
                    std::to_string(n) + " dependency write(s), " +
                    "protocol requires at least " +
                    std::to_string(minDeps) + " (" + r.protects + ")");
    }

    for (std::size_t i = 0; i < n; ++i) {
        const WriteRec &d = (*deps)[i];
        ++r.depsChecked;
        switch (r.kind) {
          case OrderingRuleKind::SettledAtTrigger:
            if (d.seq > maxSettledSeq_) {
                recordViolation(
                    ri, "dependency " +
                            describeWrite(d.addr, d.len, d.completion) +
                            " still in flight at trigger (no fence "
                            "settled it; protects " + r.protects + ")");
            }
            break;
          case OrderingRuleKind::DurableByAck:
            if (d.completion > ack) {
                recordViolation(
                    ri, "dependency " +
                            describeWrite(d.addr, d.len, d.completion) +
                            " not durable at acknowledged tick " +
                            std::to_string(ack) + " (protects " +
                            r.protects + ")");
            }
            break;
          case OrderingRuleKind::IssuedBeforeTrigger:
            // Presence (checked via minDeps above) is the contract;
            // issue order is implied by the capture discipline.
            break;
        }
    }

    if (consume && git != groups_.end())
        eraseGroup(ri, key);
}

void
OrderingTracker::clearRule(const char *rule)
{
    const std::size_t ri = indexOf(rule);
    auto it = groups_.lower_bound({ri, 0});
    while (it != groups_.end() && it->first.first == ri) {
        for (const WriteRec &d : it->second)
            openDepSeqs_.erase(d.seq);
        it = groups_.erase(it);
    }
}

void
OrderingTracker::eraseGroup(std::size_t rule_idx, std::uint64_t key)
{
    auto it = groups_.find({rule_idx, key});
    if (it == groups_.end())
        return;
    for (const WriteRec &d : it->second)
        openDepSeqs_.erase(d.seq);
    groups_.erase(it);
}

void
OrderingTracker::onTimedWrite(Addr addr, std::size_t len, Tick issue,
                              Tick completion)
{
    WriteRec rec;
    rec.seq = nextSeq_++;
    rec.addr = addr;
    rec.len = static_cast<std::uint32_t>(len);
    rec.issue = issue;
    rec.completion = completion;
    ++counters_.timedWrites;

    // Race scan at the fault model's tear granularity (8-byte words),
    // one line entry at a time. A word's entry is non-zero exactly
    // while its last write is in flight (onSettle clears it).
    const Addr end = addr + len;
    Addr word = alignDown(addr, kWordSize);
    while (word < end) {
        const Addr line = lineAddr(word);
        const Addr line_end = std::min<Addr>(end, line + kCacheLineSize);
        LineWriters &writers = inflightWriters_[line];
        for (; word < line_end; word += kWordSize) {
            std::uint64_t &last = writers.seq[(word - line) / kWordSize];
            if (last != 0) {
                ++counters_.inflightOverwrites;
                const std::size_t *dep = openDepSeqs_.find(last);
                if (dep) {
                    ++counters_.depOverwrites;
                    if (warnings_.size() < kMaxStoredTraces) {
                        char at[32];
                        std::snprintf(
                            at, sizeof(at), "0x%llx",
                            static_cast<unsigned long long>(word));
                        warnings_.push_back(
                            {rules_[*dep].name,
                             describeWrite(addr, rec.len, completion) +
                                 " overwrites an in-flight dependency "
                                 "word at " + at});
                    }
                }
            }
            last = rec.seq;
        }
    }

    inflight_.push_back(rec);
    lastWrite_ = rec;
    haveLastWrite_ = true;
}

void
OrderingTracker::onSettle(Tick tick)
{
    ++counters_.settleCalls;
    std::uint64_t popped = 0;
    while (!inflight_.empty() &&
           inflight_.front().completion <= tick) {
        maxSettledSeq_ = inflight_.front().seq;
        dropWriter(inflight_.front());
        inflight_.pop_front();
        ++popped;
    }
    counters_.settledWrites += popped;
    if (popped == 0)
        ++counters_.redundantSettles;
}

void
OrderingTracker::dropWriter(const WriteRec &w)
{
    const Addr end = w.addr + w.len;
    Addr word = alignDown(w.addr, kWordSize);
    while (word < end) {
        const Addr line = lineAddr(word);
        const Addr line_end = std::min<Addr>(end, line + kCacheLineSize);
        // w is in flight, so each of its words names w or a later
        // write, which is in flight too: the line has an entry.
        LineWriters *writers = inflightWriters_.find(line);
        HOOP_ASSERT(writers, "in-flight write with no writer entry");
        for (; word < line_end; word += kWordSize) {
            std::uint64_t &last = writers->seq[(word - line) / kWordSize];
            if (last == w.seq)
                last = 0;
        }
        if (std::all_of(std::begin(writers->seq), std::end(writers->seq),
                        [](std::uint64_t seq) { return seq == 0; }))
            inflightWriters_.erase(line);
    }
}

void
OrderingTracker::onCrash(Tick tick)
{
    (void)tick;
    // Every write issued before the crash is resolved (persisted or
    // torn): nothing stays in flight, and every open dependency group
    // died with the volatile protocol state that owned it.
    if (!inflight_.empty())
        maxSettledSeq_ = inflight_.back().seq;
    inflight_.clear();
    inflightWriters_.clear();
    openDepSeqs_.clear();
    groups_.clear();
    haveLastWrite_ = false;
}

void
OrderingTracker::recordViolation(std::size_t rule_idx,
                                 std::string detail)
{
    ++rules_[rule_idx].violations;
    ++totalViolations_;
    if (violations_.size() < kMaxStoredTraces)
        violations_.push_back(
            {rules_[rule_idx].name, std::move(detail)});
}

std::vector<OrderingRuleReport>
OrderingTracker::ruleReports() const
{
    std::vector<OrderingRuleReport> out;
    out.reserve(rules_.size());
    for (const Rule &r : rules_) {
        OrderingRuleReport rep;
        rep.name = r.name;
        rep.kind = r.kind;
        rep.protects = r.protects;
        rep.fires = r.fires;
        rep.depsChecked = r.depsChecked;
        rep.violations = r.violations;
        out.push_back(std::move(rep));
    }
    return out;
}

std::vector<std::string>
OrderingTracker::deadRules() const
{
    std::vector<std::string> out;
    for (const Rule &r : rules_) {
        if (r.fires == 0)
            out.push_back(r.name);
    }
    return out;
}

} // namespace hoopnvm
