/**
 * @file
 * Experiments T1.d and C8: Table 1 "Transactional VM" (after the IBM
 * 801 / Camelot) and the group-splitting pressure of Section 4.1.2.
 *
 * Rows reproduced: Lock(read), Lock(write), Commit. Per-transaction
 * page locks are per-(domain, page) rights -- natural for the PLB,
 * but on the page-group model they force pages into per-vector lock
 * groups, creating and destroying groups as transactions come and go
 * and filling the cache of active page-groups when a domain holds
 * many locks.
 */

#include "bench_common.hh"

#include "workload/txvm.hh"

using namespace sasos;

namespace
{

void
printTxTable(const Options &options)
{
    bench::printHeader(
        "Table 1: Transactional VM",
        "Transactions in private domains lock database pages on touch "
        "(fault -> lock grant -> rights update); commit returns pages "
        "to the inaccessible state.");

    wl::TxvmConfig tx;
    tx.commits = options.getU64("commits", 100);
    tx.transactions = options.getU64("transactions", 4);
    tx.dbPages = options.getU64("dbPages", 64);
    tx.pagesPerTx = options.getU64("pagesPerTx", 8);
    tx.writeFraction = options.getDouble("writeFraction", 0.3);

    TextTable table({"system", "commits", "aborts", "read locks",
                     "write locks", "cycles/commit", "vs plb"});
    double plb_per_commit = 0.0;
    for (const auto &model : bench::standardModels(options)) {
        core::System sys(model.config);
        const wl::TxvmResult result = wl::TxvmWorkload(tx).run(sys);
        const double per_commit =
            result.commits
                ? static_cast<double>(result.cycles.total().count()) /
                      result.commits
                : 0.0;
        if (plb_per_commit == 0.0)
            plb_per_commit = per_commit;
        table.addRow({model.label, TextTable::num(result.commits),
                      TextTable::num(result.aborts),
                      TextTable::num(result.lockReadGrants),
                      TextTable::num(result.lockWriteGrants),
                      TextTable::num(per_commit, 0),
                      bench::normalized(per_commit, plb_per_commit)});
    }
    table.print(std::cout);
}

void
printGroupPressureSweep(const Options &options)
{
    bench::printHeader(
        "C8: page-group churn under transactional locking "
        "(Section 4.1.2)",
        "\"This can cause a page to alternate between page-groups on "
        "each context switch\" / \"can fill the cache of active "
        "page-groups if a domain holds many locks.\"");

    TextTable table({"locks/tx", "groups created", "page moves",
                     "pg-cache misses", "pg-cache misses/commit",
                     "plb updates (same run on plb)"});
    for (u64 locks : {4, 16, 32}) {
        wl::TxvmConfig tx;
        tx.commits = 60;
        tx.transactions = 4;
        tx.dbPages = 128;
        tx.pagesPerTx = locks;
        tx.theta = 0.2; // spread locks across many pages

        core::System pg_sys(core::SystemConfig::fromOptions(
            options, core::SystemConfig::pageGroupSystem()));
        wl::TxvmWorkload(tx).run(pg_sys);
        auto &manager = pg_sys.pageGroupSystem()->manager();
        const u64 pg_misses =
            pg_sys.pageGroupSystem()->pageGroupCache().misses.value();

        core::System plb_sys(core::SystemConfig::fromOptions(
            options, core::SystemConfig::plbSystem()));
        wl::TxvmWorkload(tx).run(plb_sys);
        const u64 plb_updates =
            plb_sys.plbSystem()->plb().updates.value();

        table.addRow(
            {TextTable::num(locks),
             TextTable::num(manager.groupsCreated.value()),
             TextTable::num(manager.pageMoves.value()),
             TextTable::num(pg_misses),
             TextTable::num(static_cast<double>(pg_misses) / 60.0, 1),
             TextTable::num(plb_updates)});
    }
    table.print(std::cout);
    std::cout << "shape check: group churn and page-group cache "
                 "pressure grow with locks held; the PLB expresses the "
                 "same locks as in-place entry updates.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printTxTable(options);
        printGroupPressureSweep(options);
        return 0;
    });
}
