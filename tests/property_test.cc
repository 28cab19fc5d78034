/**
 * @file
 * Property-based tests: randomized operation soups over every
 * protection model, checking the invariants that must hold no matter
 * what sequence of kernel operations and references occurs.
 *
 *  - Safety: a reference completes iff the canonical tables allow it
 *    at that moment (no segment servers installed, so faults cannot
 *    change rights). Hardware caching (PLB/TLB/page-group state) must
 *    never leak access.
 *  - Oracle consistency: the model's cachedRights never exceeds
 *    canonical rights.
 *  - Structural sanity: occupancies within capacity; frames conserved.
 *  - Determinism: identical seeds give identical cycle totals.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cached_entry.hh"
#include "core/system.hh"
#include "scenario/runner.hh"
#include "sim/random.hh"

using namespace sasos;
using namespace sasos::core;

namespace
{

struct SoupParam
{
    ModelKind model;
    bool purgeOnSwitch;
    bool superPage;
    u64 seed;
    /** Pkey model: override the key-space size (0 keeps the preset).
     * Small values force the key-recycling path under the soup. */
    u64 pkeys = 0;
};

std::string
soupName(const ::testing::TestParamInfo<SoupParam> &info)
{
    std::string name;
    switch (info.param.model) {
      case ModelKind::Plb:
        name = "plb";
        break;
      case ModelKind::PageGroup:
        name = "pg";
        break;
      case ModelKind::Conventional:
        name = "conv";
        break;
      case ModelKind::Pkey:
        name = "pkey";
        break;
    }
    if (info.param.purgeOnSwitch)
        name += "Purge";
    if (!info.param.superPage)
        name += "NoSuper";
    if (info.param.pkeys != 0)
        name += "Keys" + std::to_string(info.param.pkeys);
    name += "Seed" + std::to_string(info.param.seed);
    return name;
}

constexpr vm::Access kGrantChoices[] = {
    vm::Access::None,       vm::Access::Read,  vm::Access::ReadWrite,
    vm::Access::ReadExecute, vm::Access::All,
};

} // namespace

namespace
{

/** The soup's oracle check: what the model caches for (domain, vpn)
 * never exceeds the kernel's canonical rights. */
::testing::AssertionResult
hwWithinCanonical(core::System &sys, os::DomainId domain, vm::Vpn vpn)
{
    const vm::Access hw = sys.model().cachedRights(domain, vpn);
    const vm::Access canonical = sys.kernel().canonicalRights(domain, vpn);
    if (vm::includes(canonical, hw))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "hardware over-grants domain " << domain << " page "
           << vpn.number() << ": hw=" << vm::toString(hw)
           << " canonical=" << vm::toString(canonical);
}

/** A randomized operation soup over one machine with small
 * structures (maximum pressure on the refill paths): four domains,
 * four eight-page segments. */
class Soup
{
  public:
    static constexpr int kDomains = 4;
    static constexpr int kSegments = 4;
    static constexpr u64 kPagesPerSegment = 8;

    explicit Soup(const SoupParam &param)
        : sys(configFor(param)), rng(param.seed)
    {
        auto &kernel = sys.kernel();
        for (int d = 0; d < kDomains; ++d)
            domains.push_back(kernel.createDomain("d" + std::to_string(d)));
        for (int s = 0; s < kSegments; ++s) {
            segments.push_back(kernel.createSegment(
                "s" + std::to_string(s), kPagesPerSegment));
            bases.push_back(
                sys.state().segments.find(segments[s])->base());
        }
    }

    /**
     * One random kernel operation, or a burst of references whose
     * outcomes must match the canonical tables exactly (no servers
     * exist, so faults cannot change rights). Then the oracle check
     * on a random (domain, page). Fails fatally on a mismatch.
     */
    void
    step(int op)
    {
        auto &kernel = sys.kernel();
        switch (rng.nextBelow(10)) {
          case 0: { // attach (re-attach allowed: replaces the grant)
            kernel.attach(randomDomain(), segments[randomSegmentIndex()],
                          randomGrant());
            break;
          }
          case 1: { // detach if attached
            const os::DomainId d = randomDomain();
            const vm::SegmentId seg = segments[randomSegmentIndex()];
            if (sys.state().domain(d).prot.isAttached(seg))
                kernel.detach(d, seg);
            break;
          }
          case 2: { // per-domain page override
            kernel.setPageRights(randomDomain(),
                                 randomPage(randomSegmentIndex()),
                                 randomGrant());
            break;
          }
          case 3: { // clear override (if any)
            const os::DomainId d = randomDomain();
            const vm::Vpn vpn = randomPage(randomSegmentIndex());
            if (sys.state().domain(d).prot.hasPageOverride(vpn))
                kernel.clearPageRights(d, vpn);
            break;
          }
          case 4: { // segment-level rights change (if attached)
            const os::DomainId d = randomDomain();
            const vm::SegmentId seg = segments[randomSegmentIndex()];
            if (sys.state().domain(d).prot.isAttached(seg))
                kernel.setSegmentRights(d, seg, randomGrant());
            break;
          }
          case 5: { // restrict / unrestrict a page globally
            const vm::Vpn vpn = randomPage(randomSegmentIndex());
            if (sys.state().hasPageMask(vpn))
                kernel.unrestrictPage(vpn);
            else
                kernel.restrictPage(vpn, rng.bernoulli(0.5)
                                             ? vm::Access::None
                                             : vm::Access::Read);
            break;
          }
          case 6: { // domain switch
            kernel.switchTo(randomDomain());
            break;
          }
          case 7: { // unmap a mapped page
            const vm::Vpn vpn = randomPage(randomSegmentIndex());
            if (kernel.isMapped(vpn))
                kernel.unmapPage(vpn);
            break;
          }
          default: { // a burst of references
            for (int r = 0; r < 8; ++r) {
                const std::size_t s = randomSegmentIndex();
                const vm::VAddr va =
                    bases[s] +
                    rng.nextBelow(kPagesPerSegment * vm::kPageBytes);
                const vm::AccessType type =
                    rng.bernoulli(0.4)
                        ? vm::AccessType::Store
                        : (rng.bernoulli(0.2) ? vm::AccessType::IFetch
                                              : vm::AccessType::Load);
                const os::DomainId current = kernel.currentDomain();
                const vm::Access canonical_before =
                    kernel.canonicalRights(current, vm::pageOf(va));
                const bool ok = sys.access(va, type);
                const bool expected = vm::includes(
                    canonical_before, vm::requiredRight(type));
                ASSERT_EQ(ok, expected)
                    << "op " << op << " domain " << current << " va 0x"
                    << std::hex << va.raw() << std::dec << " type "
                    << vm::toString(type) << " canonical "
                    << vm::toString(canonical_before);
                (ok ? completed : denied) += 1;
            }
            break;
          }
        }

        const os::DomainId d = randomDomain();
        const vm::Vpn vpn = randomPage(randomSegmentIndex());
        ASSERT_TRUE(hwWithinCanonical(sys, d, vpn)) << "op " << op;
    }

    core::System sys;
    std::vector<vm::VAddr> bases;
    u64 completed = 0;
    u64 denied = 0;

  private:
    static SystemConfig
    configFor(const SoupParam &param)
    {
        SystemConfig config = SystemConfig::forModel(param.model);
        config.purgeTlbOnSwitch = param.purgeOnSwitch;
        config.superPagePlb = param.superPage;
        if (!param.superPage)
            config.plb.sizeShifts = {vm::kPageShift};
        config.plb.ways = 16;
        config.tlb.ways = 16;
        config.pgCache.entries = 4;
        config.keyCache.entries = 8;
        config.cache.sizeBytes = 4096;
        if (param.pkeys != 0)
            config.pkeys = param.pkeys;
        return config;
    }

    os::DomainId
    randomDomain()
    {
        return domains[rng.nextBelow(domains.size())];
    }
    std::size_t
    randomSegmentIndex()
    {
        return static_cast<std::size_t>(rng.nextBelow(segments.size()));
    }
    vm::Vpn
    randomPage(std::size_t s)
    {
        return vm::pageOf(bases[s]) + rng.nextBelow(kPagesPerSegment);
    }
    vm::Access
    randomGrant()
    {
        return kGrantChoices[rng.nextBelow(std::size(kGrantChoices))];
    }

    Rng rng;
    std::vector<os::DomainId> domains;
    std::vector<vm::SegmentId> segments;
};

} // namespace

class OpSoupTest : public ::testing::TestWithParam<SoupParam>
{
};

TEST_P(OpSoupTest, SafetyInvariantHoldsUnderRandomOperations)
{
    Soup soup(GetParam());
    for (int op = 0; op < 6000; ++op)
        ASSERT_NO_FATAL_FAILURE(soup.step(op));

    // The soup must genuinely exercise both outcomes.
    EXPECT_GT(soup.completed, 100u);
    EXPECT_GT(soup.denied, 100u);

    // Frames conserved: every mapped page holds exactly one frame.
    EXPECT_EQ(soup.sys.state().frameAllocator.inUse(),
              soup.sys.state().pageTable.size());
}

TEST_P(OpSoupTest, HwCheckFlagsARaisedEntry)
{
    // Halfway through the soup, cache a read-only grant for the
    // running domain and raise that one entry to All, as a model that
    // missed a revoke would hold it: the soup's check must report it.
    Soup soup(GetParam());
    for (int op = 0; op < 3000; ++op)
        ASSERT_NO_FATAL_FAILURE(soup.step(op));

    core::System &sys = soup.sys;
    auto &kernel = sys.kernel();
    const os::DomainId d = kernel.currentDomain();
    const vm::Vpn vpn = vm::pageOf(soup.bases[0]);
    if (sys.state().hasPageMask(vpn))
        kernel.unrestrictPage(vpn);
    kernel.setPageRights(d, vpn, vm::Access::Read);
    ASSERT_EQ(kernel.canonicalRights(d, vpn), vm::Access::Read);
    ASSERT_TRUE(sys.load(vm::baseOf(vpn)));
    EXPECT_TRUE(hwWithinCanonical(sys, d, vpn));

    ASSERT_TRUE(test::raiseCachedEntry(sys.model(), d, vpn));
    EXPECT_FALSE(hwWithinCanonical(sys, d, vpn));
}

TEST_P(OpSoupTest, DeterministicCycleTotals)
{
    const SoupParam param = GetParam();
    u64 totals[2];
    for (int run = 0; run < 2; ++run) {
        SystemConfig config = SystemConfig::forModel(param.model);
        config.purgeTlbOnSwitch = param.purgeOnSwitch;
        core::System sys(config);
        auto &kernel = sys.kernel();
        Rng rng(param.seed);
        const os::DomainId a = kernel.createDomain("a");
        const os::DomainId b = kernel.createDomain("b");
        const vm::SegmentId seg = kernel.createSegment("s", 8);
        kernel.attach(a, seg, vm::Access::ReadWrite);
        kernel.attach(b, seg, vm::Access::Read);
        const vm::VAddr base = sys.state().segments.find(seg)->base();
        for (int i = 0; i < 500; ++i) {
            kernel.switchTo(rng.bernoulli(0.5) ? a : b);
            const vm::VAddr va =
                base + rng.nextBelow(8 * vm::kPageBytes);
            if (rng.bernoulli(0.3))
                sys.store(va);
            else
                sys.load(va);
        }
        totals[run] = sys.cycles().count();
    }
    EXPECT_EQ(totals[0], totals[1]);
}

namespace
{

/** Drive the same randomized operation soup against all four
 * architectures in lockstep and assert they agree on every single
 * reference. The canonical tables evolve identically (same kernel
 * calls), so any divergence is a hardware model leaking or dropping
 * rights. With `faults` set, every system also runs its own
 * fault injector -- perturbations may differ per machine, but
 * decisions still may not. */
void
crossModelSoup(u64 seed, bool faults)
{
    constexpr int kDomains = 3;
    constexpr int kSegments = 3;
    constexpr u64 kPagesPerSegment = 8;

    std::vector<std::unique_ptr<core::System>> systems;
    for (ModelKind kind : {ModelKind::Plb, ModelKind::PageGroup,
                           ModelKind::Conventional, ModelKind::Pkey}) {
        SystemConfig config = SystemConfig::forModel(kind);
        config.faults.enabled = faults;
        config.faults.rate = 0.05;
        config.faults.seed = seed;
        if (kind == ModelKind::Pkey) {
            // A tight key space keeps the recycling path inside the
            // lockstep comparison, not just the steady state.
            config.pkeys = 4;
            config.keyCache.entries = 8;
        }
        systems.push_back(std::make_unique<core::System>(config));
    }

    std::vector<os::DomainId> domains;
    std::vector<vm::SegmentId> segments;
    std::vector<vm::VAddr> bases;
    for (int d = 0; d < kDomains; ++d) {
        os::DomainId id = 0;
        for (auto &sys : systems)
            id = sys->kernel().createDomain("d" + std::to_string(d));
        domains.push_back(id);
    }
    for (int s = 0; s < kSegments; ++s) {
        vm::SegmentId id = 0;
        for (auto &sys : systems)
            id = sys->kernel().createSegment("s" + std::to_string(s),
                                             kPagesPerSegment);
        segments.push_back(id);
        // The allocator is deterministic, so every system places the
        // segment at the same base.
        bases.push_back(
            systems[0]->state().segments.find(id)->base());
        for (auto &sys : systems)
            ASSERT_EQ(sys->state().segments.find(id)->base().raw(),
                      bases.back().raw());
    }

    Rng rng(seed);
    auto random_domain = [&] {
        return domains[rng.nextBelow(domains.size())];
    };
    auto random_segment_index = [&] {
        return static_cast<std::size_t>(rng.nextBelow(segments.size()));
    };
    auto random_page = [&](std::size_t s) {
        return vm::pageOf(bases[s]) + rng.nextBelow(kPagesPerSegment);
    };
    auto random_grant = [&] {
        return kGrantChoices[rng.nextBelow(std::size(kGrantChoices))];
    };

    u64 agreed_allows = 0, agreed_denies = 0;
    for (int op = 0; op < 2500; ++op) {
        switch (rng.nextBelow(8)) {
          case 0: {
            const os::DomainId d = random_domain();
            const vm::SegmentId seg = segments[random_segment_index()];
            const vm::Access grant = random_grant();
            if (grant != vm::Access::None)
                for (auto &sys : systems)
                    sys->kernel().attach(d, seg, grant);
            break;
          }
          case 1: {
            const os::DomainId d = random_domain();
            const vm::SegmentId seg = segments[random_segment_index()];
            // Guard reads system 0's canonical state; all systems have
            // identical canonical state, so the guard is shared.
            if (systems[0]->state().domain(d).prot.isAttached(seg))
                for (auto &sys : systems)
                    sys->kernel().detach(d, seg);
            break;
          }
          case 2: {
            const os::DomainId d = random_domain();
            const vm::Vpn vpn = random_page(random_segment_index());
            const vm::Access grant = random_grant();
            for (auto &sys : systems)
                sys->kernel().setPageRights(d, vpn, grant);
            break;
          }
          case 3: {
            const vm::Vpn vpn = random_page(random_segment_index());
            const bool restricted = systems[0]->state().hasPageMask(vpn);
            for (auto &sys : systems) {
                if (restricted)
                    sys->kernel().unrestrictPage(vpn);
                else
                    sys->kernel().restrictPage(vpn, vm::Access::Read);
            }
            break;
          }
          case 4: {
            const os::DomainId d = random_domain();
            for (auto &sys : systems)
                sys->kernel().switchTo(d);
            break;
          }
          default: {
            for (int r = 0; r < 6; ++r) {
                const std::size_t s = random_segment_index();
                const vm::VAddr va =
                    bases[s] +
                    rng.nextBelow(kPagesPerSegment * vm::kPageBytes);
                const vm::AccessType type =
                    rng.bernoulli(0.4)
                        ? vm::AccessType::Store
                        : (rng.bernoulli(0.2) ? vm::AccessType::IFetch
                                              : vm::AccessType::Load);
                const os::DomainId current =
                    systems[0]->kernel().currentDomain();
                const bool expected = vm::includes(
                    systems[0]->kernel().canonicalRights(current,
                                                         vm::pageOf(va)),
                    vm::requiredRight(type));
                for (auto &sys : systems) {
                    const bool ok = sys->access(va, type);
                    ASSERT_EQ(ok, expected)
                        << toString(sys->config().model) << " op " << op
                        << " va 0x" << std::hex << va.raw() << std::dec
                        << " type " << vm::toString(type)
                        << (faults ? " (faults on)" : "");
                }
                (expected ? agreed_allows : agreed_denies) += 1;
            }
            break;
          }
        }
    }
    EXPECT_GT(agreed_allows, 100u);
    EXPECT_GT(agreed_denies, 100u);
    if (faults)
        for (auto &sys : systems)
            EXPECT_GT(sys->injector()->injected.value(), 0u)
                << toString(sys->config().model);
}

} // namespace

TEST(CrossModelEquivalenceTest, AllModelsAgreeOnEveryReference)
{
    for (u64 seed : {11u, 22u, 33u})
        crossModelSoup(seed, false);
}

TEST(CrossModelEquivalenceTest, AgreementSurvivesFaultInjection)
{
    for (u64 seed : {11u, 22u, 33u})
        crossModelSoup(seed, true);
}

namespace
{

/** Replay one application scenario on all four architectures in
 * lockstep: every reference must produce the same allow/deny decision
 * on every model, and that decision must be predictable from the
 * canonical tables alone (for copy-on-write pages a store succeeds
 * through the CoW fault path exactly when the domain's unmasked
 * rights include Write). After every operation, hardware rights on a
 * sampled (domain, page) pair must not exceed canonical rights. */
void
lockstepScenario(const scn::Script &script, bool faults, u64 seed)
{
    std::vector<std::unique_ptr<core::System>> systems;
    for (ModelKind kind : {ModelKind::Plb, ModelKind::PageGroup,
                           ModelKind::Conventional, ModelKind::Pkey}) {
        SystemConfig config = SystemConfig::forModel(kind);
        config.faults.enabled = faults;
        config.faults.rate = 0.03;
        config.faults.seed = seed;
        systems.push_back(std::make_unique<core::System>(config));
    }

    Rng sample(seed ^ 0x5bd1e9955bd1e995ull);
    u64 allows = 0, denies = 0;
    for (std::size_t i = 0; i < script.ops.size(); ++i) {
        const scn::Op &op = script.ops[i];
        if (op.kind == scn::OpKind::Ref) {
            // Expected outcome from system 0's canonical state before
            // any system issues the reference (all canonical states
            // are identical by construction).
            os::Kernel &kernel0 = systems[0]->kernel();
            const os::DomainId current = kernel0.currentDomain();
            const vm::Vpn vpn = vm::pageOf(vm::VAddr(op.addr));
            const os::Domain *d = systems[0]->state().findDomain(current);
            const bool cow_writable =
                kernel0.isCowProtected(vpn) && d != nullptr &&
                vm::includes(d->prot.effectiveRights(
                                 vpn, systems[0]->state().segments),
                             vm::Access::Write);
            const bool expected =
                vm::includes(kernel0.canonicalRights(current, vpn),
                             vm::requiredRight(op.type)) ||
                (op.type == vm::AccessType::Store && cow_writable);
            for (auto &sys : systems) {
                const std::optional<bool> decision =
                    scn::applyOp(*sys, op, i);
                ASSERT_TRUE(decision.has_value());
                ASSERT_EQ(*decision, expected)
                    << script.name << " op " << i << " on "
                    << toString(sys->config().model) << " va 0x"
                    << std::hex << op.addr << std::dec
                    << (faults ? " (faults on)" : "");
            }
            (expected ? allows : denies) += 1;
        } else {
            for (auto &sys : systems)
                scn::applyOp(*sys, op, i);
        }

        // Per-step oracle sample: hardware never over-grants.
        const auto &domains = systems[0]->state().domains();
        const std::vector<vm::SegmentId> live =
            systems[0]->state().segments.liveIds();
        if (domains.empty() || live.empty())
            continue;
        auto it = domains.begin();
        std::advance(it, sample.nextBelow(domains.size()));
        const vm::Segment *seg = systems[0]->state().segments.find(
            live[sample.nextBelow(live.size())]);
        const vm::Vpn vpn(seg->firstPage.number() +
                          sample.nextBelow(seg->pages));
        for (auto &sys : systems) {
            const vm::Access hw =
                sys->model().cachedRights(it->first, vpn);
            const vm::Access canonical =
                sys->kernel().canonicalRights(it->first, vpn);
            ASSERT_TRUE(vm::includes(canonical, hw))
                << script.name << " op " << i << " on "
                << toString(sys->config().model)
                << ": hw=" << vm::toString(hw)
                << " canonical=" << vm::toString(canonical);
        }
    }
    EXPECT_EQ(allows + denies, script.refs);
    EXPECT_GT(allows, 0u);
}

} // namespace

TEST(ScenarioEquivalenceTest, ScenariosAgreeOnEveryReference)
{
    for (const scn::Script &script : scn::standardScripts(7))
        lockstepScenario(script, false, 7);
}

TEST(ScenarioEquivalenceTest, AgreementSurvivesFaultInjection)
{
    for (const scn::Script &script : scn::standardScripts(9))
        lockstepScenario(script, true, 9);
}

INSTANTIATE_TEST_SUITE_P(
    Soups, OpSoupTest,
    ::testing::Values(
        SoupParam{ModelKind::Plb, false, true, 1},
        SoupParam{ModelKind::Plb, false, true, 2},
        SoupParam{ModelKind::Plb, false, false, 3},
        SoupParam{ModelKind::PageGroup, false, true, 1},
        SoupParam{ModelKind::PageGroup, false, true, 2},
        SoupParam{ModelKind::PageGroup, false, true, 4},
        SoupParam{ModelKind::Conventional, false, true, 1},
        SoupParam{ModelKind::Conventional, false, true, 2},
        SoupParam{ModelKind::Conventional, true, true, 1},
        SoupParam{ModelKind::Conventional, true, true, 5},
        SoupParam{ModelKind::Pkey, false, true, 1},
        SoupParam{ModelKind::Pkey, false, true, 2},
        // Key spaces smaller than the working set force recycling.
        SoupParam{ModelKind::Pkey, false, true, 3, 4},
        SoupParam{ModelKind::Pkey, false, true, 6, 2}),
    soupName);
