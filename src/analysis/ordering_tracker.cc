#include "analysis/ordering_tracker.hh"

#include <algorithm>
#include <cstdio>

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
    auto it = ruleIdx_.find(name);
    if (it != ruleIdx_.end())
        return RuleDecl(*this, it->second);
    const std::size_t idx = rules_.size();
    Rule r;
    r.name = name;
    rules_.push_back(std::move(r));
    ruleIdx_.emplace(name, idx);
    return RuleDecl(*this, idx);
}

std::size_t
OrderingTracker::indexOf(const char *rule) const
{
    auto it = ruleIdx_.find(rule);
    HOOP_ASSERT(it != ruleIdx_.end(),
                "ordering rule '%s' used before declaration", rule);
    return it->second;
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

    // Race scan at the fault model's tear granularity (8-byte words).
    const Addr end = addr + len;
    for (Addr word = alignDown(addr, kWordSize); word < end;
         word += kWordSize) {
        auto it = lastWriterSeq_.find(word);
        if (it != lastWriterSeq_.end() && it->second > maxSettledSeq_) {
            ++counters_.inflightOverwrites;
            auto dep = openDepSeqs_.find(it->second);
            if (dep != openDepSeqs_.end()) {
                ++counters_.depOverwrites;
                if (warnings_.size() < kMaxStoredTraces) {
                    char at[32];
                    std::snprintf(at, sizeof(at), "0x%llx",
                                  static_cast<unsigned long long>(word));
                    warnings_.push_back(
                        {rules_[dep->second].name,
                         describeWrite(addr, rec.len, completion) +
                             " overwrites an in-flight dependency "
                             "word at " + at});
                }
            }
            it->second = rec.seq;
        } else if (it != lastWriterSeq_.end()) {
            it->second = rec.seq;
        } else {
            lastWriterSeq_.emplace(word, rec.seq);
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
        inflight_.pop_front();
        ++popped;
    }
    counters_.settledWrites += popped;
    if (popped == 0)
        ++counters_.redundantSettles;
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
    lastWriterSeq_.clear();
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
