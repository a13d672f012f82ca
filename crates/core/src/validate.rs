//! Structural validation of the interface IR.
//!
//! Front-ends produce IR mechanically; this pass catches what their grammars
//! cannot: dangling type names, duplicate declarations, alias cycles, and
//! void in positions where it is meaningless. Everything downstream
//! (signatures, presentations, programs) may assume a validated module.

use crate::ir::{Module, Type, TypeBody};
use crate::{CoreError, Result};
use std::collections::HashSet;
use std::hash::Hash;

/// The longest list whose repeats are found by scanning its earlier
/// entries; a longer one goes through a hash set. The modules anyone binds
/// have a handful of operations, parameters and fields per scope, so
/// validating them allocates nothing, and a generated thousand-entry enum
/// is still checked in linear time.
const SCAN_MAX: usize = 16;

/// Visits `items` in order: an item whose key repeats an earlier item's
/// fails with `repeat(item)`, any other is passed to `each`. One pass, so
/// of two defects in a list the one that comes first is the one reported,
/// whichever kind it is.
fn each_distinct<'a, T, K: Eq + Hash>(
    items: &'a [T],
    key: impl Fn(&'a T) -> K,
    repeat: impl Fn(&'a T) -> CoreError,
    mut each: impl FnMut(&'a T) -> Result<()>,
) -> Result<()> {
    let mut seen = (items.len() > SCAN_MAX).then(HashSet::new);
    for (i, item) in items.iter().enumerate() {
        let k = key(item);
        let repeated = match &mut seen {
            Some(seen) => !seen.insert(k),
            None => items[..i].iter().any(|earlier| key(earlier) == k),
        };
        if repeated {
            return Err(repeat(item));
        }
        each(item)?;
    }
    Ok(())
}

fn duplicate(kind: &'static str, name: &str) -> CoreError {
    CoreError::Duplicate { kind, name: name.to_owned() }
}

/// Validates a module, returning it unchanged on success.
pub fn validate(module: &Module) -> Result<()> {
    check_duplicates(module)?;
    check_alias_cycles(module)?;
    for td in &module.typedefs {
        match &td.body {
            TypeBody::Alias(t) => check_type(module, t, false)?,
            TypeBody::Struct(fields) => each_distinct(
                fields,
                |f| f.name.as_str(),
                |f| duplicate("field", &f.name),
                |f| check_type(module, &f.ty, false),
            )?,
            TypeBody::Enum(items) => {
                each_distinct(items, String::as_str, |it| duplicate("enumerator", it), |_| Ok(()))?;
                if items.is_empty() {
                    return Err(CoreError::Invalid(format!("enum `{}` has no items", td.name)));
                }
            }
            TypeBody::Union { arms, default } => {
                each_distinct(
                    arms,
                    |a| a.case,
                    |a| CoreError::Invalid(format!("union `{}` repeats case {}", td.name, a.case)),
                    // XDR unions commonly have `void` arms ("no data in
                    // this case"), so void is legal here.
                    |a| check_type(module, &a.field.ty, true),
                )?;
                if let Some(d) = default {
                    check_type(module, &d.ty, true)?;
                }
            }
        }
    }
    for iface in &module.interfaces {
        for op in &iface.ops {
            each_distinct(
                &op.params,
                |p| p.name.as_str(),
                |p| duplicate("parameter", &p.name),
                |p| check_type(module, &p.ty, false),
            )?;
            check_type(module, &op.ret, true)?;
        }
    }
    Ok(())
}

fn check_duplicates(module: &Module) -> Result<()> {
    each_distinct(
        &module.typedefs,
        |td| td.name.as_str(),
        |td| duplicate("type", &td.name),
        |_| Ok(()),
    )?;
    each_distinct(
        &module.interfaces,
        |iface| iface.name.as_str(),
        |iface| duplicate("interface", &iface.name),
        |iface| {
            each_distinct(
                &iface.ops,
                |op| op.name.as_str(),
                |op| duplicate("operation", &op.name),
                |_| Ok(()),
            )
        },
    )
}

fn check_alias_cycles(module: &Module) -> Result<()> {
    for td in &module.typedefs {
        // Walk the alias chain from each typedef; `resolve` bounds itself.
        let t = Type::Named(td.name.clone());
        module.resolve(&t)?;
    }
    Ok(())
}

fn check_type(module: &Module, ty: &Type, void_ok: bool) -> Result<()> {
    match ty {
        Type::Void if !void_ok => {
            Err(CoreError::Invalid("void is only valid as a result type".into()))
        }
        Type::Void => Ok(()),
        Type::Sequence(el) | Type::Array(el, _) => {
            if **el == Type::Void {
                return Err(CoreError::Invalid("void element type".into()));
            }
            check_type(module, el, false)
        }
        Type::Named(name) => {
            if module.typedef(name).is_none() {
                return Err(CoreError::Unresolved { kind: "type", name: name.clone() });
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{
        fileio_example, Dialect, Field, Interface, Operation, Param, ParamDir, TypeDef, UnionArm,
    };

    #[test]
    fn examples_validate() {
        validate(&fileio_example()).unwrap();
        validate(&crate::ir::syslog_example()).unwrap();
    }

    #[test]
    fn duplicate_interface_rejected() {
        let mut m = fileio_example();
        m.interfaces.push(Interface::new("FileIO", vec![]));
        assert!(matches!(validate(&m), Err(CoreError::Duplicate { kind: "interface", .. })));
    }

    #[test]
    fn duplicate_operation_rejected() {
        let mut m = fileio_example();
        m.interfaces[0].ops.push(Operation::new("read", vec![], Type::Void));
        assert!(matches!(validate(&m), Err(CoreError::Duplicate { kind: "operation", .. })));
    }

    #[test]
    fn duplicate_param_rejected() {
        let mut m = fileio_example();
        m.interfaces[0].ops[0].params.push(Param::new("count", ParamDir::In, Type::U32));
        assert!(matches!(validate(&m), Err(CoreError::Duplicate { kind: "parameter", .. })));
    }

    #[test]
    fn dangling_param_type_rejected() {
        let mut m = fileio_example();
        m.interfaces[0].ops[0].params.push(Param::new(
            "extra",
            ParamDir::In,
            Type::Named("nowhere".into()),
        ));
        assert!(matches!(validate(&m), Err(CoreError::Unresolved { .. })));
    }

    #[test]
    fn void_param_rejected() {
        let mut m = fileio_example();
        m.interfaces[0].ops[0].params.push(Param::new("v", ParamDir::In, Type::Void));
        assert!(matches!(validate(&m), Err(CoreError::Invalid(_))));
    }

    #[test]
    fn void_result_accepted() {
        let m = fileio_example();
        assert_eq!(m.interfaces[0].ops[1].ret, Type::Void);
        validate(&m).unwrap();
    }

    #[test]
    fn alias_cycle_rejected() {
        let mut m = Module::new("t", Dialect::Corba);
        m.typedefs
            .push(TypeDef { name: "x".into(), body: TypeBody::Alias(Type::Named("x".into())) });
        assert!(validate(&m).is_err());
    }

    #[test]
    fn empty_enum_rejected() {
        let mut m = Module::new("t", Dialect::Corba);
        m.typedefs.push(TypeDef { name: "e".into(), body: TypeBody::Enum(vec![]) });
        assert!(matches!(validate(&m), Err(CoreError::Invalid(_))));
    }

    #[test]
    fn duplicate_union_case_rejected() {
        let mut m = Module::new("t", Dialect::Corba);
        m.typedefs.push(TypeDef {
            name: "u".into(),
            body: TypeBody::Union {
                arms: vec![
                    UnionArm { case: 0, field: Field { name: "a".into(), ty: Type::U32 } },
                    UnionArm { case: 0, field: Field { name: "b".into(), ty: Type::U32 } },
                ],
                default: None,
            },
        });
        assert!(matches!(validate(&m), Err(CoreError::Invalid(_))));
    }

    /// How many well-formed entries precede the defect: the first keeps
    /// every list on the scanning side of `SCAN_MAX`, the second puts it
    /// through the hash set. Every rejection below must read the same on
    /// both.
    const PADS: [usize; 2] = [2, 20];

    fn names(prefix: &str, n: usize) -> impl Iterator<Item = String> + '_ {
        (0..n).map(move |i| format!("{prefix}{i}"))
    }

    fn typedef(name: &str, body: TypeBody) -> TypeDef {
        TypeDef { name: name.into(), body }
    }

    fn field(name: &str, ty: Type) -> Field {
        Field { name: name.into(), ty }
    }

    fn param(name: &str, ty: Type) -> Param {
        Param::new(name, ParamDir::In, ty)
    }

    fn dup(kind: &'static str, name: &str) -> Result<()> {
        Err(CoreError::Duplicate { kind, name: name.into() })
    }

    fn dangling(name: &str) -> Result<()> {
        Err(CoreError::Unresolved { kind: "type", name: name.into() })
    }

    /// A module whose one interface has one operation with these params.
    fn with_params(params: Vec<Param>) -> Module {
        let mut m = Module::new("t", Dialect::Corba);
        m.interfaces.push(Interface::new("I", vec![Operation::new("op", params, Type::Void)]));
        m
    }

    #[test]
    fn module_scope_repeats_are_reported_on_both_sides_of_the_switch() {
        for pad in PADS {
            let mut m = Module::new("t", Dialect::Corba);
            m.typedefs.extend(names("t", pad).map(|n| typedef(&n, TypeBody::Alias(Type::U32))));
            m.interfaces.extend(names("I", pad).map(|n| Interface::new(&n, vec![])));
            validate(&m).unwrap();

            // Of several repeats, the first in list order is the one named.
            let mut types = m.clone();
            for again in ["t1", "t0", "t1"] {
                types.typedefs.push(typedef(again, TypeBody::Alias(Type::U32)));
            }
            assert_eq!(validate(&types), dup("type", "t1"), "pad {pad}");

            let mut ifaces = m.clone();
            ifaces.interfaces.push(Interface::new("I1", vec![]));
            ifaces.interfaces.push(Interface::new("I0", vec![]));
            assert_eq!(validate(&ifaces), dup("interface", "I1"), "pad {pad}");

            // A repeated type is reported before a repeated interface, and
            // a repeated interface before the repeated operation inside it.
            let mut both = types.clone();
            both.interfaces.push(Interface::new("I0", vec![]));
            assert_eq!(validate(&both), dup("type", "t1"), "pad {pad}");
            let op = || Operation::new("op", vec![], Type::Void);
            ifaces.interfaces.last_mut().unwrap().ops = vec![op(), op()];
            assert_eq!(validate(&ifaces), dup("interface", "I1"), "pad {pad}");
        }
    }

    #[test]
    fn a_repeated_operation_is_found_last_of_sixteen_and_last_of_seventeen() {
        // 16 entries scan, 17 hash: the duplicate is the last entry of each.
        for len in [SCAN_MAX, SCAN_MAX + 1] {
            let mut m = Module::new("t", Dialect::Corba);
            let ops = names("op", len - 1).map(|n| Operation::new(&n, vec![], Type::Void));
            m.interfaces.push(Interface::new("I", ops.collect()));
            validate(&m).unwrap();
            m.interfaces[0].ops.push(Operation::new("op0", vec![], Type::Void));
            assert_eq!(m.interfaces[0].ops.len(), len);
            assert_eq!(validate(&m), dup("operation", "op0"), "{len} operations");
        }
    }

    #[test]
    fn of_two_parameter_defects_the_earlier_one_is_reported() {
        for pad in PADS {
            let fill = || names("p", pad).map(|n| param(&n, Type::U32)).collect::<Vec<_>>();
            validate(&with_params(fill())).unwrap();

            let mut dangling_first = fill();
            dangling_first.push(param("x", Type::Named("nowhere".into())));
            dangling_first.push(param("p0", Type::U32));
            assert_eq!(validate(&with_params(dangling_first)), dangling("nowhere"), "pad {pad}");

            let mut repeat_first = fill();
            repeat_first.push(param("p1", Type::U32));
            repeat_first.push(param("x", Type::Named("nowhere".into())));
            repeat_first.push(param("p0", Type::U32));
            assert_eq!(validate(&with_params(repeat_first)), dup("parameter", "p1"), "pad {pad}");

            let mut void_first = fill();
            void_first.push(param("v", Type::Void));
            void_first.push(param("p0", Type::U32));
            assert_eq!(
                validate(&with_params(void_first)),
                Err(CoreError::Invalid("void is only valid as a result type".into())),
                "pad {pad}"
            );
        }
    }

    #[test]
    fn typedef_body_repeats_are_reported_on_both_sides_of_the_switch() {
        for pad in PADS {
            let module_of = |body| {
                let mut m = Module::new("t", Dialect::Corba);
                m.typedefs.push(typedef("d", body));
                m
            };
            let fields = || names("f", pad).map(|n| field(&n, Type::U32)).collect::<Vec<_>>();
            validate(&module_of(TypeBody::Struct(fields()))).unwrap();

            let mut repeated = fields();
            repeated.push(field("f1", Type::U64));
            repeated.push(field("x", Type::Named("nowhere".into())));
            assert_eq!(
                validate(&module_of(TypeBody::Struct(repeated))),
                dup("field", "f1"),
                "pad {pad}"
            );
            let mut dangles = fields();
            dangles.push(field("x", Type::Named("nowhere".into())));
            dangles.push(field("f1", Type::U64));
            assert_eq!(
                validate(&module_of(TypeBody::Struct(dangles))),
                dangling("nowhere"),
                "pad {pad}"
            );

            let mut items: Vec<String> = names("e", pad).collect();
            validate(&module_of(TypeBody::Enum(items.clone()))).unwrap();
            items.extend(["e1".to_owned(), "e0".to_owned()]);
            assert_eq!(
                validate(&module_of(TypeBody::Enum(items))),
                dup("enumerator", "e1"),
                "pad {pad}"
            );

            let arm = |case: u32, ty| UnionArm { case, field: field(&format!("a{case}"), ty) };
            let mut arms: Vec<_> = (0..pad as u32).map(|c| arm(c, Type::U32)).collect();
            let union = |arms| module_of(TypeBody::Union { arms, default: None });
            validate(&union(arms.clone())).unwrap();
            arms.push(arm(1, Type::Void));
            arms.push(arm(99, Type::Named("nowhere".into())));
            assert_eq!(
                validate(&union(arms)),
                Err(CoreError::Invalid("union `d` repeats case 1".into())),
                "pad {pad}"
            );
        }
    }

    #[test]
    fn duplicate_struct_field_rejected() {
        let mut m = Module::new("t", Dialect::Corba);
        m.typedefs.push(TypeDef {
            name: "s".into(),
            body: TypeBody::Struct(vec![
                Field { name: "f".into(), ty: Type::U32 },
                Field { name: "f".into(), ty: Type::U64 },
            ]),
        });
        assert!(matches!(validate(&m), Err(CoreError::Duplicate { kind: "field", .. })));
    }
}
