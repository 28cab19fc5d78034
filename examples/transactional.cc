/**
 * @file
 * Transactional virtual memory with page locking (IBM 801 style),
 * the paper's "Transactional VM" application. Transactions run in
 * their own protection domains; page touches acquire locks through
 * protection faults; commit returns the pages to the inaccessible
 * state. On the page-group model, watch the group splits and PID
 * pressure this causes (Section 4.1.2).
 *
 * Run: ./transactional [model=plb|pg|conv|pkey] [commits=N] ...
 */

#include <cstdio>
#include <iostream>

#include "sasos.hh"
#include "workload/txvm.hh"

using namespace sasos;

int
main(int argc, char **argv)
{
    Options options;
    options.parseArgs(argc, argv);
    const core::SystemConfig config = core::SystemConfig::fromOptions(
        options, core::SystemConfig::pageGroupSystem());

    wl::TxvmConfig tx;
    tx.commits = options.getU64("commits", tx.commits);
    tx.transactions = options.getU64("transactions", tx.transactions);
    tx.dbPages = options.getU64("dbPages", tx.dbPages);
    tx.pagesPerTx = options.getU64("pagesPerTx", tx.pagesPerTx);
    tx.writeFraction = options.getDouble("writeFraction", tx.writeFraction);
    tx.seed = options.getU64("seed", tx.seed);

    std::printf("transactional VM on the %s model: %lu commits, %lu "
                "concurrent transactions, %lu-page database\n",
                toString(config.model),
                static_cast<unsigned long>(tx.commits),
                static_cast<unsigned long>(tx.transactions),
                static_cast<unsigned long>(tx.dbPages));

    core::System sys(config);
    wl::TxvmWorkload workload(tx);
    const wl::TxvmResult result = workload.run(sys);

    std::printf("\ncommits:          %lu\n",
                static_cast<unsigned long>(result.commits));
    std::printf("aborts:           %lu\n",
                static_cast<unsigned long>(result.aborts));
    std::printf("read locks:       %lu\n",
                static_cast<unsigned long>(result.lockReadGrants));
    std::printf("write locks:      %lu\n",
                static_cast<unsigned long>(result.lockWriteGrants));
    std::printf("cycles:           %lu\n",
                static_cast<unsigned long>(result.cycles.total().count()));

    if (auto *pg = sys.pageGroupSystem()) {
        std::printf("\npage-group pressure (Section 4.1.2):\n");
        std::printf("  groups created: %lu\n",
                    static_cast<unsigned long>(
                        pg->manager().groupsCreated.value()));
        std::printf("  splits:         %lu\n",
                    static_cast<unsigned long>(
                        pg->manager().splits.value()));
        std::printf("  page moves:     %lu\n",
                    static_cast<unsigned long>(
                        pg->manager().pageMoves.value()));
        std::printf("  pg-cache misses: %lu\n",
                    static_cast<unsigned long>(
                        pg->pageGroupCache().misses.value()));
    }

    std::printf("\ncycle breakdown:\n");
    result.cycles.dump(std::cout, "  ");
    return 0;
}
