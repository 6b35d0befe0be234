/**
 * @file
 * Persistency-ordering analyzer (PMTest/Witcher-style, adapted to the
 * simulator's timed write model).
 *
 * Controllers declare their durability happens-before rules once,
 * through a small DSL:
 *
 *   t.rule("hoop-commit-record")
 *       .requiresDurable("chain slices + record at the commit ack");
 *   t.rule("hoop-gc-recycle")
 *       .requiresSettled("the GC watermark write");
 *   t.rule("undo-home-write")
 *       .requiresIssued("the line's undo-log entry");
 *
 * and then tag the runtime with the writes each rule depends on
 * (addDep) and the moments the rule's guarantee is claimed (trigger).
 * The tracker — hooked into NvmDevice/FaultModel as an
 * NvmWriteObserver — mirrors the fault model's in-flight write set and
 * checks every trigger against the declared rule:
 *
 *  - SettledAtTrigger  every dependency must have left the in-flight
 *                      set (a durability fence drained it) when the
 *                      trigger fires. This is the drain-before-truncate
 *                      / drain-before-recycle class of rule.
 *  - DurableByAck      every dependency's completion tick must be at
 *                      or before the acknowledged durability tick the
 *                      trigger reports. This is the commit-record
 *                      class: the ack the application receives must not
 *                      precede the writes it vouches for.
 *  - IssuedBeforeTrigger  the dependency writes must exist at all
 *                      (minDeps) — the write-ahead class: an undo
 *                      entry must be issued before any in-place home
 *                      write of its line.
 *
 * Beyond rule checks the tracker maintains perf/anti-pattern counters:
 * redundant settles (fences that drained nothing), words rewritten
 * while a prior write of the same word is still in flight ("persisted
 * twice"), and overwrites of still-in-flight rule dependencies
 * (reported as warnings — the not-yet-triggered rule still protects
 * them, but they are persistency races worth auditing).
 *
 * Spec coverage: a declared rule that never fires is dead — reported
 * so a protocol change cannot silently orphan its spec.
 *
 * State is sized by the in-flight window, not by the run: a word's
 * last writer is kept only while that write is in flight, and a fence
 * that retires the write drops it. OSP never fences, so its window is
 * the whole run.
 */

#ifndef HOOPNVM_ANALYSIS_ORDERING_TRACKER_HH
#define HOOPNVM_ANALYSIS_ORDERING_TRACKER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "nvm/write_observer.hh"

namespace hoopnvm
{

/** The three durability happens-before rule classes. */
enum class OrderingRuleKind : std::uint8_t
{
    SettledAtTrigger,
    DurableByAck,
    IssuedBeforeTrigger,
};

/** Printable name of @p k ("settled-at-trigger", ...). */
const char *orderingRuleKindName(OrderingRuleKind k);

/** One detected ordering violation (or race warning). */
struct OrderingViolation
{
    std::string rule;
    std::string detail;
};

/** Per-rule outcome of a tracked run. */
struct OrderingRuleReport
{
    std::string name;
    OrderingRuleKind kind = OrderingRuleKind::SettledAtTrigger;
    std::string protects;
    std::uint64_t fires = 0;
    std::uint64_t depsChecked = 0;
    std::uint64_t violations = 0;
};

/**
 * Sum the per-rule outcomes of @p from into @p into, matching rules by
 * name; a rule @p into lacks is appended. Sweeps merge this way so a
 * rule that never fires anywhere shows up as dead.
 */
void mergeRuleReports(std::vector<OrderingRuleReport> *into,
                      const std::vector<OrderingRuleReport> &from);

/** Whole-run counters ("persisted twice" / drain-overhead analysis). */
struct OrderingCounters
{
    std::uint64_t timedWrites = 0;
    std::uint64_t settleCalls = 0;

    /** Fences that drained no in-flight write at all. */
    std::uint64_t redundantSettles = 0;

    /** Writes retired from the in-flight set by a fence. */
    std::uint64_t settledWrites = 0;

    /**
     * 8-byte words rewritten while an earlier write covering the word
     * was still in flight — the "persisted twice" anti-pattern: the
     * earlier write's durability was never awaited before it was
     * superseded.
     */
    std::uint64_t inflightOverwrites = 0;

    /**
     * Subset of inflightOverwrites where the earlier write is a live
     * dependency of an open rule group (persistency race against a
     * declared obligation; reported as a warning trace too).
     */
    std::uint64_t depOverwrites = 0;
};

/** Declared-rule checker over one device's timed write stream. */
class OrderingTracker final : public NvmWriteObserver
{
  public:
    OrderingTracker() = default;

    // ---- Declaration DSL ----

    /** Builder returned by rule(); pick exactly one requires*(). */
    class RuleDecl
    {
      public:
        /** DurableByAck: deps durable by the acknowledged tick. */
        void requiresDurable(std::string what);

        /** SettledAtTrigger: deps fenced out of flight at trigger. */
        void requiresSettled(std::string what);

        /** IssuedBeforeTrigger: deps issued before the trigger. */
        void requiresIssued(std::string what);

      private:
        friend class OrderingTracker;
        RuleDecl(OrderingTracker &t, std::size_t idx)
            : t_(t), idx_(idx)
        {
        }
        OrderingTracker &t_;
        std::size_t idx_;
    };

    /** Declare (or re-open) the rule @p name. */
    RuleDecl rule(const std::string &name);

    // ---- Controller runtime ----

    /**
     * Record the most recently observed timed write as a dependency of
     * @p rule under group @p key (e.g. the TxId, the home line, or 0
     * for a singleton group). Must directly follow the write it tags.
     */
    void addDep(const char *rule, std::uint64_t key);

    /**
     * The moment @p rule's guarantee is claimed for group @p key: check
     * every recorded dependency per the rule's kind. @p ack is the
     * acknowledged durability tick (DurableByAck only). @p minDeps
     * flags groups with fewer dependencies than the protocol must have
     * produced. @p consume retires the group (default); pass false when
     * the same group is re-checked by later triggers.
     */
    void trigger(const char *rule, std::uint64_t key, Tick ack = 0,
                 std::size_t minDeps = 0, bool consume = true);

    /** Retire every group of @p rule (e.g. after a log truncation). */
    void clearRule(const char *rule);

    // ---- NvmWriteObserver ----

    void onTimedWrite(Addr addr, std::size_t len, Tick issue,
                      Tick completion) override;
    void onSettle(Tick tick) override;
    void onCrash(Tick tick) override;

    // ---- Reporting ----

    std::vector<OrderingRuleReport> ruleReports() const;

    /** Rules that never fired (spec-coverage holes). */
    std::vector<std::string> deadRules() const;

    const std::vector<OrderingViolation> &violations() const
    {
        return violations_;
    }
    std::uint64_t totalViolations() const { return totalViolations_; }

    /** Race warnings (dep overwritten in flight); not violations. */
    const std::vector<OrderingViolation> &warnings() const
    {
        return warnings_;
    }

    const OrderingCounters &counters() const { return counters_; }

  private:
    /** Stored-trace cap; counters keep exact totals beyond it. */
    static constexpr std::size_t kMaxStoredTraces = 100;

    struct WriteRec
    {
        std::uint64_t seq = 0;
        Addr addr = 0;
        std::uint32_t len = 0;
        Tick issue = 0;
        Tick completion = 0;
    };

    struct Rule
    {
        std::string name;
        OrderingRuleKind kind = OrderingRuleKind::SettledAtTrigger;
        std::string protects;
        std::uint64_t fires = 0;
        std::uint64_t depsChecked = 0;
        std::uint64_t violations = 0;
    };

    /**
     * In-flight last writer of each 8-byte word of one 64-byte line,
     * by write seq; 0 where the last write of the word has settled
     * (or the word was never written).
     */
    struct LineWriters
    {
        std::uint64_t seq[kWordsPerLine];
    };

    /** Index of the declared rule named @p rule, or rules_.size(). */
    std::size_t findRule(const char *rule) const;

    std::size_t indexOf(const char *rule) const;
    void recordViolation(std::size_t rule_idx, std::string detail);
    void eraseGroup(std::size_t rule_idx, std::uint64_t key);

    /** Clear each word of settled write @p w that still names it. */
    void dropWriter(const WriteRec &w);

    /**
     * Declared rules. A tracker holds a handful, so lookups scan the
     * names in place rather than building a std::string map key.
     */
    std::vector<Rule> rules_;

    /** Dependency groups: (rule, key) -> tagged writes. */
    std::map<std::pair<std::size_t, std::uint64_t>,
             std::vector<WriteRec>>
        groups_;

    /** Mirror of the fault model's in-flight write set (issue order). */
    std::deque<WriteRec> inflight_;

    /** Writes with seq <= this have settled (completion monotonic). */
    std::uint64_t maxSettledSeq_ = 0;

    std::uint64_t nextSeq_ = 1;
    WriteRec lastWrite_;
    bool haveLastWrite_ = false;

    /**
     * In-flight last writers by line address (race detection). A line
     * leaves the map once none of its words has an in-flight writer.
     */
    FlatMap<LineWriters> inflightWriters_;

    /** Dependency writes of open groups: seq -> owning rule. */
    FlatMap<std::size_t> openDepSeqs_;

    OrderingCounters counters_;
    std::vector<OrderingViolation> violations_;
    std::vector<OrderingViolation> warnings_;
    std::uint64_t totalViolations_ = 0;
};

} // namespace hoopnvm

#endif // HOOPNVM_ANALYSIS_ORDERING_TRACKER_HH
