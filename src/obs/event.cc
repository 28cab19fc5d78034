#include "obs/event.hh"

namespace sasos::obs
{

const char *
toString(EventKind kind)
{
    switch (kind) {
      case EventKind::AccessBegin:
      case EventKind::AccessEnd:
        return "access";
      case EventKind::PlbHit:
        return "plbHit";
      case EventKind::PlbMiss:
        return "plbMiss";
      case EventKind::PlbFill:
        return "plbFill";
      case EventKind::PlbEvict:
        return "plbEvict";
      case EventKind::TlbHit:
        return "tlbHit";
      case EventKind::TlbMiss:
        return "tlbMiss";
      case EventKind::TlbFill:
        return "tlbFill";
      case EventKind::TlbEvict:
        return "tlbEvict";
      case EventKind::PgCacheHit:
        return "pgCacheHit";
      case EventKind::PgCacheMiss:
        return "pgCacheMiss";
      case EventKind::PgCacheFill:
        return "pgCacheFill";
      case EventKind::PgCacheEvict:
        return "pgCacheEvict";
      case EventKind::KeyHit:
        return "keyHit";
      case EventKind::KeyMiss:
        return "keyMiss";
      case EventKind::KeyFill:
        return "keyFill";
      case EventKind::KeyEvict:
        return "keyEvict";
      case EventKind::DCacheHit:
        return "dcacheHit";
      case EventKind::DCacheMiss:
        return "dcacheMiss";
      case EventKind::DCacheEvict:
        return "dcacheEvict";
      case EventKind::ProtectionFlush:
        return "protectionFlush";
      case EventKind::ProtectionFault:
        return "protectionFault";
      case EventKind::TranslationFault:
        return "translationFault";
      case EventKind::KernelResolveBegin:
      case EventKind::KernelResolveEnd:
        return "kernelResolve";
      case EventKind::FaultRetry:
        return "faultRetry";
      case EventKind::DomainSwitch:
        return "domainSwitch";
      case EventKind::Shootdown:
        return "shootdown";
      case EventKind::ShootdownAck:
        return "shootdownAck";
      case EventKind::ShootdownComplete:
        return "shootdownComplete";
      case EventKind::NumKinds:
        break;
    }
    return "?";
}

char
phaseOf(EventKind kind)
{
    switch (kind) {
      case EventKind::AccessBegin:
      case EventKind::KernelResolveBegin:
        return 'B';
      case EventKind::AccessEnd:
      case EventKind::KernelResolveEnd:
        return 'E';
      default:
        return 'i';
    }
}

} // namespace sasos::obs
