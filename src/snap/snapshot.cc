#include "snap/snapshot.hh"

#include <fstream>

#include "core/mc/mc_system.hh"
#include "core/system.hh"
#include "sim/logging.hh"
#include "workload/address_stream.hh"

namespace sasos::snap
{

Snapshot
Snapshot::fromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        SASOS_FATAL("cannot open snapshot '", path, "'");
    Snapshot image;
    image.bytes.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    if (in.bad())
        SASOS_FATAL("error reading snapshot '", path, "'");
    return image;
}

void
Snapshot::toFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        SASOS_FATAL("cannot create snapshot '", path, "'");
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out)
        SASOS_FATAL("error writing snapshot '", path, "'");
}

void
Snapshotter::add(const core::System &system)
{
    system.save(writer_);
}

void
Snapshotter::add(const core::mc::McSystem &system)
{
    system.save(writer_);
}

void
Snapshotter::add(const Rng &rng)
{
    rng.save(writer_);
}

void
Snapshotter::add(const wl::AddressStream &stream)
{
    writer_.putTag("stream");
    stream.save(writer_);
}

Snapshot
Snapshotter::finish() &&
{
    return Snapshot{std::move(writer_).seal()};
}

Restorer::Restorer(const Snapshot &image) : reader_(image.bytes) {}

Restorer::Restorer(Snapshot &&image) : reader_(std::move(image.bytes)) {}

void
Restorer::restore(core::System &system)
{
    system.load(reader_);
}

void
Restorer::restore(core::mc::McSystem &system)
{
    system.load(reader_);
}

void
Restorer::restore(Rng &rng)
{
    rng.load(reader_);
}

void
Restorer::restore(wl::AddressStream &stream)
{
    reader_.expectTag("stream");
    stream.load(reader_);
}

void
Restorer::finish()
{
    reader_.finish();
}

SnapshotOptions
SnapshotOptions::fromOptions(const Options &options)
{
    SnapshotOptions snapshot;
    snapshot.out = options.getString("snapshot_out", "");
    snapshot.restore = options.getString("restore", "");
    snapshot.every = options.getU64("snapshot_every", 0);
    return snapshot;
}

} // namespace sasos::snap
