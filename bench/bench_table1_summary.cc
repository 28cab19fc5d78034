/**
 * @file
 * The consolidated Table 1: every row of the paper's "Some Common
 * Functions that Manipulate Protection" measured as an isolated
 * operation on each architecture, in simulated cycles (I/O and
 * network time excluded -- those are model-independent).
 *
 * This is the direct artifact reproduction: the paper's table is
 * qualitative (which structures each model touches); this one prints
 * what those manipulations cost under the shared cost model, holding
 * the scenario fixed across models.
 */

#include "bench_common.hh"

#include <functional>

using namespace sasos;

namespace
{

/** A segment server that grants whatever right the fault needs. */
class GrantingServer : public os::SegmentServer
{
  public:
    bool
    onProtectionFault(os::Kernel &kernel, os::DomainId domain,
                      vm::VAddr va, vm::AccessType type) override
    {
        kernel.setPageRights(domain, vm::pageOf(va),
                             type == vm::AccessType::Store
                                 ? vm::Access::ReadWrite
                                 : vm::Access::Read);
        return true;
    }
};

/** Fixture shared by the rows: two apps + a server domain, a warm
 * shared segment, and a granting segment server. */
struct Scenario
{
    explicit Scenario(const core::SystemConfig &config) : sys(config)
    {
        app = sys.kernel().createDomain("app");
        peer = sys.kernel().createDomain("peer");
        server = sys.kernel().createDomain("server");
        seg = sys.kernel().createSegment("data", 16);
        sys.kernel().attach(app, seg, vm::Access::ReadWrite);
        sys.kernel().attach(peer, seg, vm::Access::ReadWrite);
        sys.kernel().attach(server, seg, vm::Access::ReadWrite);
        base = sys.state().segments.find(seg)->base();
        // Warm every domain's protection and translation state.
        for (os::DomainId d : {app, peer, server}) {
            sys.kernel().switchTo(d);
            sys.touchRange(base, 16 * vm::kPageBytes);
        }
        sys.kernel().switchTo(app);
    }

    u64
    measure(const std::function<void(Scenario &)> &op)
    {
        const CycleAccount before = sys.account();
        op(*this);
        return sys.account().since(before).totalExcludingIo().count();
    }

    core::System sys;
    os::DomainId app = 0, peer = 0, server = 0;
    vm::SegmentId seg = 0;
    /** Scratch segment created by a row's setup. */
    vm::SegmentId fresh = 0;
    vm::VAddr base;
    GrantingServer granting;
};

struct Row
{
    const char *application;
    const char *action;
    /** Unmeasured preparation (runs before the clock starts). */
    std::function<void(Scenario &)> setup;
    /** The measured operation. */
    std::function<void(Scenario &)> op;
};

std::vector<Row>
table1Rows()
{
    auto make_pager = [](Scenario &s) {
        os::Pager &pager = s.sys.makePager(os::PagerConfig{true});
        s.sys.kernel().attach(pager.domainId(), s.seg,
                              vm::Access::ReadWrite);
    };
    return {
        {"Any", "Attach Segment",
         [](Scenario &s) {
             s.fresh = s.sys.kernel().createSegment("fresh", 16);
         },
         [](Scenario &s) {
             s.sys.kernel().attach(s.app, s.fresh, vm::Access::ReadWrite);
         }},
        {"Any", "Detach Segment", nullptr,
         [](Scenario &s) { s.sys.kernel().detach(s.peer, s.seg); }},
        {"Concurrent GC", "Flip Spaces",
         [](Scenario &s) {
             s.fresh = s.sys.kernel().createSegment("to-space", 16);
         },
         [](Scenario &s) {
             // from-space revoked from the app; to-space appears for
             // collector (server) and app (no access until scanned).
             s.sys.kernel().detach(s.app, s.seg);
             s.sys.kernel().attach(s.server, s.fresh,
                                   vm::Access::ReadWrite);
             s.sys.kernel().attach(s.app, s.fresh, vm::Access::None);
         }},
        {"Concurrent GC", "Access unscanned to-space",
         [](Scenario &s) {
             s.sys.kernel().setPageRights(s.app, vm::pageOf(s.base),
                                          vm::Access::None);
             s.sys.kernel().setSegmentServer(s.seg, &s.granting);
         },
         [](Scenario &s) {
             s.sys.load(s.base); // trap -> upcall -> grant -> retry
         }},
        {"Distributed VM", "Get Readable",
         [](Scenario &s) {
             s.sys.kernel().setPageRights(s.app, vm::pageOf(s.base),
                                          vm::Access::None);
             s.sys.kernel().setSegmentServer(s.seg, &s.granting);
         },
         [](Scenario &s) { s.sys.load(s.base); }},
        {"Distributed VM", "Get Writable",
         [](Scenario &s) {
             s.sys.kernel().setPageRights(s.app, vm::pageOf(s.base),
                                          vm::Access::Read);
             s.sys.kernel().setSegmentServer(s.seg, &s.granting);
         },
         [](Scenario &s) {
             // Invalidate the remote replica, then grant exclusive.
             s.sys.kernel().setPageRights(s.peer, vm::pageOf(s.base),
                                          vm::Access::None);
             s.sys.store(s.base);
         }},
        {"Distributed VM", "Invalidate", nullptr,
         [](Scenario &s) {
             s.sys.kernel().setPageRights(s.peer, vm::pageOf(s.base),
                                          vm::Access::None);
         }},
        {"Transactional VM", "Lock (read)", nullptr,
         [](Scenario &s) {
             s.sys.kernel().setPageRights(s.app, vm::pageOf(s.base),
                                          vm::Access::Read);
         }},
        {"Transactional VM", "Lock (write)", nullptr,
         [](Scenario &s) {
             s.sys.kernel().setPageRights(s.app, vm::pageOf(s.base),
                                          vm::Access::ReadWrite);
         }},
        {"Transactional VM", "Commit (8 pages)",
         [](Scenario &s) {
             for (u64 p = 0; p < 8; ++p) {
                 s.sys.kernel().setPageRights(
                     s.app, vm::pageOf(s.base) + p, vm::Access::ReadWrite);
             }
         },
         [](Scenario &s) {
             for (u64 p = 0; p < 8; ++p) {
                 s.sys.kernel().setPageRights(
                     s.app, vm::pageOf(s.base) + p, vm::Access::None);
             }
         }},
        {"Concurrent Checkpoint", "Restrict Access", nullptr,
         [](Scenario &s) {
             s.sys.kernel().setSegmentRights(s.app, s.seg,
                                             vm::Access::Read);
         }},
        {"Concurrent Checkpoint", "Checkpoint Page", nullptr,
         [](Scenario &s) {
             // Disk write excluded from the reported cycles.
             s.sys.kernel().charge(CostCategory::Io,
                                   s.sys.costs().diskAccess);
             s.sys.kernel().setPageRights(s.app, vm::pageOf(s.base),
                                          vm::Access::ReadWrite);
         }},
        {"Compression Paging", "Page-out", make_pager,
         [](Scenario &s) {
             s.sys.kernel().pager()->pageOut(vm::pageOf(s.base));
         }},
        {"Compression Paging", "Page-in",
         [make_pager](Scenario &s) {
             make_pager(s);
             s.sys.kernel().pager()->pageOut(vm::pageOf(s.base));
         },
         [](Scenario &s) {
             s.sys.kernel().pager()->pageIn(vm::pageOf(s.base));
         }},
    };
}

void
printTable1(const Options &options)
{
    bench::printHeader(
        "Table 1, consolidated: cycles per operation (excl. I/O)",
        "Each row is the paper's operation run in isolation on a warm "
        "three-domain scenario; same kernel calls on every "
        "architecture, different hardware maintenance underneath.");

    const auto models = bench::standardModels(options);
    std::vector<std::string> headers{"application", "action"};
    for (const auto &model : models)
        headers.push_back(model.label);
    TextTable table(headers);

    const char *last_app = "";
    for (const Row &row : table1Rows()) {
        std::vector<std::string> cells;
        cells.push_back(std::string(row.application) == last_app
                            ? ""
                            : row.application);
        last_app = row.application;
        cells.push_back(row.action);
        for (const auto &model : models) {
            Scenario scenario(model.config);
            if (row.setup)
                row.setup(scenario);
            cells.push_back(TextTable::num(scenario.measure(row.op)));
        }
        table.addRow(cells);
    }
    table.print(std::cout);
    std::cout << "paper's qualitative table made quantitative; see the "
                 "per-application benches for the full workloads.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printTable1(options);
        return 0;
    });
}
